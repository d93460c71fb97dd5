(* The two lowerings every flow starts from, pinned: the ISA code
   [Compiler.compile] emits, and the segment DFGs [Dfg.of_segment]
   builds for the scheduler. The digests were recorded on the list- and
   Digraph-based lowerings these replaced, so the flat builders must
   reproduce them byte for byte. The "alloc" cases count minor words,
   not time. *)

module Compiler = Lp_compiler.Compiler
module Cluster = Lp_cluster.Cluster
module Dfg = Lp_ir.Dfg
module Flow = Lp_core.Flow

let apps () =
  List.map
    (fun (e : Lp_apps.Apps.entry) -> (e.Lp_apps.Apps.name, e.Lp_apps.Apps.build ()))
    Lp_apps.Apps.extended

let corpus () =
  match Lp_bench.Corpus.load "../bench/corpus.json" with
  | Error msg -> Alcotest.fail ("corpus manifest: " ^ msg)
  | Ok entries ->
      List.map
        (fun (e : Lp_bench.Corpus.entry) ->
          match Lp_gen.Gen.parse_name e.Lp_bench.Corpus.spec with
          | Ok (spec, seed) -> (e.Lp_bench.Corpus.spec, Lp_gen.Gen.generate spec ~seed)
          | Error msg -> Alcotest.fail msg)
        entries

(* Two temporaries live across a call: the compiler saves and reloads
   them newest first. *)
let calls () =
  let open Lp_ir.Builder in
  program ~arrays:[]
    [
      func "f" ~params:[ "x" ] ~locals:[] [ return (var "x" * int 3) ];
      func "main" ~params:[] ~locals:[ "y" ]
        [
          "y" := (int 1 + int 2) + ((int 3 + int 4) + call "f" [ int 5 ]);
          print (var "y");
        ];
    ]

let programs = lazy (apps () @ corpus () @ [ ("calls", calls ()) ])

let hex s = Digest.to_hex (Digest.string s)

(* --- compiled code ------------------------------------------------- *)

(* The stubs [System.run] hands the compiler for the default flow's
   partition of [p]. *)
let default_stubs name p =
  let r = Flow.run ~name p in
  List.map
    (fun (s : Flow.selected) ->
      let c = s.Flow.candidate.Lp_core.Candidate.cluster in
      {
        Compiler.acall_id = c.Cluster.cid;
        top_sids = List.map (fun (st : Lp_ir.Ast.stmt) -> st.Lp_ir.Ast.sid) c.Cluster.stmts;
        use_scalars = s.Flow.use_scalars;
        gen_scalars = s.Flow.gen_scalars;
      })
    r.Flow.selected

let compile_digest ?stubs ~peephole p =
  let prog, layout = Compiler.compile ?stubs ~peephole p in
  hex (Marshal.to_string (prog, layout) [ Marshal.No_sharing ])

(* Per program: no stubs, then the default partition's stubs, each
   with the peephole pass off and on. gen:deep:1, gen:large:1 and
   gen:stress:1 move nothing to hardware under the default options. *)
let compile_pinned =
  [
    ("3d", "1acff18267e0c5c13fb051750beb5c7e", "243632985becac1f415f0c17b452466a", "217bbe79f0665d378bc295066ae5dba6", "fed93514c8adb562ef60c51659718cf2");
    ("mpg", "da27dc3b21fb55f47a9d2e52d9ff8a48", "37c34995785beba51858901ff62159c6", "c9651523a51f253a98492ef42884a5be", "d5ebd2bc9c73637cc0eb933f1b134400");
    ("ckey", "f9b8c1062b9e670cd7ff66e68de3a7a7", "0f3b173587aa35aee6e9d924cb5d1def", "d0a199d285a930454aa2ed82da2c639d", "a95a4e3e999729c1a8b51d0467772779");
    ("digs", "357eec3dc1ef6f4c7cb90d924399a472", "357eec3dc1ef6f4c7cb90d924399a472", "57395196d5b6c8231e478960ffaca65a", "57395196d5b6c8231e478960ffaca65a");
    ("engine", "47134d44309852af559456956f7c2796", "291e653b82517f9a6d3f98280d5fb53f", "19a14a3b7c8acb699d81b53f5bccb235", "0e835bfc814275f72b52f3a4ad82198c");
    ("trick", "2b0273dfd8af9925895602b49eb74889", "af05825c12e38a8ea29a902a772cbbb0", "76854c2d8ff4a18f5d6ae3b042a49915", "0424224bfe7093fa92202a0d6a774768");
    ("protocol", "679bb6e953e9fdafcd752f02d6afc2cf", "d135ec7ac7680ff730901bdf063a2774", "242be52f2104012bfedc003526f1433c", "2c0f3b3081b3c271a3378f5369094b95");
    ("gen:paper:1", "830f60c9e93bf0e306f36d159b13f888", "5bd8d855fbcfc3c2afa7be9e50d645a2", "4819192b2443c0ba3af616fdc8ef6399", "81f7c14aad873048ca7563f485c0effd");
    ("gen:paper:2", "621122d2be4870e8b6f00f085b87a2cb", "e39afa9a92473d574fc7b3cd3d5ca6d6", "65072ca5c97394d3d41c86411f8656e3", "ebc07dc0534afc417ae63220f047f9b8");
    ("gen:wide:1", "a01c214eeaa53c7b5057fab400bfcee6", "f7508d85fb54068f85c45f34656b7e59", "1b3f6c98dcdfa769e66fa4847c44730c", "72194ec959877758e359781f086ba71e");
    ("gen:deep:1", "e2d4e8e7b59945eaac5de4bde77699e3", "c8ae2df29cf7bd5ddf59ad1a3858ccf8", "e2d4e8e7b59945eaac5de4bde77699e3", "c8ae2df29cf7bd5ddf59ad1a3858ccf8");
    ("gen:large:1", "f88c4ecafedaba2416261b921545f489", "20d56051e656a19fb31f363ca19a2c26", "f88c4ecafedaba2416261b921545f489", "20d56051e656a19fb31f363ca19a2c26");
    ("gen:stress:1", "ed13454f23763e89ea6e0a04a060c23e", "c94e7c54f27d9118e169d6dc67166e81", "ed13454f23763e89ea6e0a04a060c23e", "c94e7c54f27d9118e169d6dc67166e81");
    ("calls", "17bb4e3144fff9bbdf5f7095b7acfaaf", "59cefd6d8a0d8b5ece787aa02925be5b", "17bb4e3144fff9bbdf5f7095b7acfaaf", "59cefd6d8a0d8b5ece787aa02925be5b");
  ]

let test_compile_pinned () =
  let expected = List.map (fun (n, a, b, c, d) -> (n, [ a; b; c; d ])) compile_pinned in
  let got =
    List.map
      (fun (name, p) ->
        let stubs = default_stubs name p in
        ( name,
          [
            compile_digest ~peephole:false p;
            compile_digest ~peephole:true p;
            compile_digest ~stubs ~peephole:false p;
            compile_digest ~stubs ~peephole:true p;
          ] ))
      (Lazy.force programs)
  in
  Alcotest.(check (list (pair string (list string)))) "code, entry, layout" expected got

(* --- segment DFGs -------------------------------------------------- *)

let ints l = String.concat "," (List.map string_of_int l)

(* Every segment of every cluster [Candidate.prepare] lowers, through
   the public accessors only. *)
let dfg_text p =
  let b = Buffer.create 4096 and segs = ref 0 in
  List.iter
    (fun c ->
      if Cluster.asic_candidate c then
        List.iter
          (fun (seg : Cluster.segment) ->
            incr segs;
            match Dfg.of_segment seg.Cluster.seg_exprs seg.Cluster.seg_stmts with
            | None -> Buffer.add_string b "none\n"
            | Some dfg ->
                Printf.bprintf b "dfg %d\n" (Dfg.node_count dfg);
                for v = 0 to Dfg.node_count dfg - 1 do
                  Printf.bprintf b "%s %s <%s >%s\n"
                    (Lp_tech.Op.to_string (Dfg.op dfg v))
                    (Option.value ~default:"-" (Dfg.array dfg v))
                    (ints (Dfg.preds dfg v))
                    (ints (Dfg.succs dfg v))
                done)
          (Cluster.segments c))
    (Cluster.decompose p);
  (!segs, Buffer.contents b)

let dfg_pinned =
  [
    ("3d", 5, "9a82fd8a0fc74ed4a614e2af07abd209");
    ("mpg", 19, "7aa3ad4f9f609421f7e72a9b86685a59");
    ("ckey", 11, "4eb52172a619c3ce0e1d6d0538e383c7");
    ("digs", 13, "f2463aef1e98cbfb3ed0e6d0586e9fe5");
    ("engine", 8, "6ef72ac495fe3985b70dc83460bb1cd6");
    ("trick", 11, "c9553aebf0944dfd508becf820e76a17");
    ("protocol", 5, "36f3d85b913fcf93280466829168067f");
    ("gen:paper:1", 35, "1ed802b78061c70bfbcd68faac1d4a3b");
    ("gen:paper:2", 37, "82243bbd3b9690a512891a7f1feb8d15");
    ("gen:wide:1", 191, "0ad535177d9bcd0879d20216a66362f5");
    ("gen:deep:1", 47, "f105f9f164d6754a774216bfe46aedf2");
    ("gen:large:1", 1149, "bbfa5c17a5e1fc842393698b50501af3");
    ("gen:stress:1", 7025, "8390691221e10d21317d2a5d21153734");
    ("calls", 0, "d41d8cd98f00b204e9800998ecf8427e");
  ]

let test_dfg_pinned () =
  let got =
    List.map
      (fun (name, p) ->
        let segs, text = dfg_text p in
        (name, segs, hex text))
      (Lazy.force programs)
  in
  Alcotest.(check (list (triple string int string))) "segments" dfg_pinned got

(* --- allocation ---------------------------------------------------- *)

let gen_large () =
  let spec, seed = Result.get_ok (Lp_gen.Gen.parse_name "gen:large:1") in
  (spec, Lp_gen.Gen.generate spec ~seed)

let below ~what ~bound per =
  Alcotest.(check bool) (Printf.sprintf "%.2f minor words per %s < %.0f" per what bound)
    true (per < bound)

(* [Candidate.prepare] over gen:large:1's preselected clusters: the
   segment DFGs, their scheduling data and the uP-side op counts. The
   Digraph lowering with list priorities allocated 89.7 words per DFG
   node here; the flat one 49.6. *)
let test_prepare_alloc () =
  let spec, program = gen_large () in
  let profile = (Lp_ir.Interp.run program).Lp_ir.Interp.profile in
  let preselected =
    List.map fst
      (Lp_preselect.Preselect.pre_select
         (Lp_preselect.Preselect.create program (Cluster.decompose program))
         ~profile ~n_max:spec.Lp_gen.Gen.clusters)
  in
  let nodes =
    List.fold_left
      (fun acc c ->
        List.fold_left
          (fun acc (seg : Cluster.segment) ->
            match Dfg.of_segment seg.Cluster.seg_exprs seg.Cluster.seg_stmts with
            | Some d -> acc + Dfg.node_count d
            | None -> acc)
          acc (Cluster.segments c))
      0 preselected
  in
  ignore (Lp_core.Candidate.prepare ~profile (List.hd preselected));
  let w0 = Gc.minor_words () in
  List.iter (fun c -> ignore (Lp_core.Candidate.prepare ~profile c)) preselected;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "nodes" 16891 nodes;
  below ~what:"DFG node" ~bound:60.0 (words /. float_of_int nodes)

(* [Compiler.compile gen:large:1]: with a list per function, its
   concatenation and a two-pass assembler, 32.8 words per instruction;
   with one stream for the program and a one-pass assembler, 13.1. *)
let test_compile_alloc () =
  let _, program = gen_large () in
  ignore (Compiler.compile program);
  let w0 = Gc.minor_words () in
  let prog, _ = Compiler.compile program in
  let words = Gc.minor_words () -. w0 in
  let n = Array.length prog.Lp_isa.Isa.code in
  Alcotest.(check int) "instructions" 36619 n;
  below ~what:"instruction" ~bound:16.0 (words /. float_of_int n)

let () =
  Alcotest.run "lp_lowering"
    [
      ( "pinned",
        [
          Alcotest.test_case "compiled code" `Quick test_compile_pinned;
          Alcotest.test_case "segment dfgs" `Quick test_dfg_pinned;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "prepare per dfg node" `Quick test_prepare_alloc;
          Alcotest.test_case "compile per instruction" `Quick test_compile_alloc;
        ] );
    ]
