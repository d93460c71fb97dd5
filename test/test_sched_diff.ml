(* Differential test of the event-driven list scheduler, the binder
   and the one-sweep netlist generator: [Lp_sched.Sched.schedule],
   [Lp_bind.Bind.bind] and [Lp_rtl.Netlist.generate] must equal the
   reference implementations they replaced ([Sched_ref]) field for
   field — start step, kind and latency of every node, schedule length,
   the whole binding and the whole netlist record — on every segment DFG of the paper apps, [protocol] and the tracked
   corpus programs under all five preset resource sets, and on random
   blocks rich in multi-cycle operations and priority ties. *)

module Sched = Lp_sched.Sched
module Netlist = Lp_rtl.Netlist
module Bind = Lp_bind.Bind
module Dfg = Lp_ir.Dfg
module Resource = Lp_tech.Resource
module Resource_set = Lp_tech.Resource_set
module Cluster = Lp_cluster.Cluster

let presets =
  Resource_set.[ tiny; small; medium_dsp; large_dsp; control ]

let show_sched = function
  | None -> "infeasible"
  | Some (s : Sched.t) ->
      Printf.sprintf "length %d, starts [%s], kinds [%s], latencies [%s]"
        s.Sched.length
        (String.concat ";" (Array.to_list (Array.map string_of_int s.Sched.start)))
        (String.concat ";"
           (Array.to_list (Array.map Resource.kind_to_string s.Sched.kind)))
        (String.concat ";"
           (Array.to_list (Array.map string_of_int s.Sched.latency)))

let same_sched (a : Sched.t option) (b : Sched.t option) =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
      a.Sched.length = b.Sched.length
      && a.Sched.start = b.Sched.start
      && a.Sched.kind = b.Sched.kind
      && a.Sched.latency = b.Sched.latency
  | _ -> false

let show_netlist (t : Netlist.t) = Format.asprintf "%a" Netlist.pp t

let show_bind (b : Bind.result) = Format.asprintf "%a" Bind.pp_result b

(* Schedule [dfgs] under [rs] with both schedulers; when every segment
   is feasible, also bind them (all together and one by one, with
   distinct execution counts) and compare the bindings and the
   netlists. Returns the number of comparisons made, or a message
   describing the first disagreement. *)
let compare_segments ~what dfgs rs =
  let scheds =
    List.map (fun dfg -> (Sched.schedule dfg rs, Sched_ref.schedule dfg rs)) dfgs
  in
  match List.find_opt (fun (a, b) -> not (same_sched a b)) scheds with
  | Some (a, b) ->
      Error
        (Printf.sprintf "%s on %s: schedule\n  new: %s\n  ref: %s" what
           (Resource_set.name rs) (show_sched a) (show_sched b))
  | None -> (
      let n = List.length scheds in
      let segs =
        List.filter_map
          (fun (s, _) -> s)
          scheds
        |> List.mapi (fun i sched -> { Bind.sched; times = 1 + (7 * i) })
      in
      if List.length segs < n || segs = [] then Ok n
      else
        let groups = segs :: (if n > 1 then List.map (fun s -> [ s ]) segs else []) in
        let bad =
          List.find_map
            (fun group ->
              let b = Bind.bind group and b_ref = Sched_ref.bind group in
              if b <> b_ref then
                Some
                  (Printf.sprintf "%s on %s: binding\n  new: %s\n  ref: %s" what
                     (Resource_set.name rs) (show_bind b) (show_bind b_ref))
              else
                let a = Netlist.generate b group
                and r = Sched_ref.generate b_ref group in
                if a = r then None
                else
                  Some
                    (Printf.sprintf "%s on %s: netlist\n  new: %s\n  ref: %s"
                       what (Resource_set.name rs) (show_netlist a)
                       (show_netlist r)))
            groups
        in
        match bad with
        | Some msg -> Error msg
        | None -> Ok (n + (2 * List.length groups)))

let check_program name program =
  let count = ref 0 in
  List.iter
    (fun (c : Cluster.t) ->
      let dfgs =
        List.filter_map
          (fun (seg : Cluster.segment) ->
            Dfg.of_segment seg.Cluster.seg_exprs seg.Cluster.seg_stmts)
          (Cluster.segments c)
      in
      List.iter
        (fun rs ->
          match
            compare_segments
              ~what:(Printf.sprintf "%s cluster %d" name c.Cluster.cid)
              dfgs rs
          with
          | Ok k -> count := !count + k
          | Error msg -> Alcotest.fail msg)
        presets)
    (Cluster.decompose program);
  !count

let test_programs programs () =
  let total =
    List.fold_left
      (fun acc (name, build) -> acc + check_program name (build ()))
      0 (programs ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d comparisons made" total)
    true (total > 0)

let apps () =
  List.map
    (fun (e : Lp_apps.Apps.entry) -> (e.Lp_apps.Apps.name, e.Lp_apps.Apps.build))
    Lp_apps.Apps.extended

let corpus () =
  match Lp_bench.Corpus.load "../bench/corpus.json" with
  | Error msg -> Alcotest.fail ("corpus manifest: " ^ msg)
  | Ok entries ->
      List.map
        (fun (e : Lp_bench.Corpus.entry) ->
          match Lp_gen.Gen.parse_name e.Lp_bench.Corpus.spec with
          | Ok (spec, seed) ->
              (e.Lp_bench.Corpus.spec, fun () -> Lp_gen.Gen.generate spec ~seed)
          | Error msg -> Alcotest.fail msg)
        entries

(* --- random blocks ------------------------------------------------ *)

let vars = [ "a"; "b"; "c"; "d" ]

(* Blocks built from a few templates over independent operands, so many
   nodes share a priority, with multiplies, divides, two-cycle ALU
   shifts and memory ports among them. *)
let tie_block_gen =
  let open Lp_ir.Builder in
  QCheck.Gen.(
    let operand = map (fun i -> var (List.nth vars (i mod 4))) small_nat in
    let template =
      oneof
        [
          map2 (fun x y -> x * y) operand operand;
          map2 (fun x y -> x / (y ||| Lp_ir.Builder.int 1)) operand operand;
          map2 (fun x y -> x + y) operand operand;
          map2 (fun x y -> x <<< y) operand operand;
          map2 (fun x y -> (x * y) + (x - y)) operand operand;
          map (fun x -> load "m" (x &&& Lp_ir.Builder.int 15)) operand;
          map2 (fun x y -> x < y) operand operand;
        ]
    in
    let stmt =
      frequency
        [
          (5, map2 (fun i e -> List.nth vars (i mod 4) := e) small_nat template);
          (2, map2 (fun i e -> store "m" (var (List.nth vars (i mod 4)) &&& Lp_ir.Builder.int 15) e)
                small_nat template);
          (1, map (fun e -> print e) template);
        ]
    in
    list_size (int_range 1 24) stmt)

let random_block_gen =
  QCheck.Gen.oneof
    [
      tie_block_gen;
      Lp_testkit.block_gen ~vars ~arrays:[ ("m", 16) ];
    ]

let print_blocks blocks =
  String.concat "\n--\n"
    (List.map
       (fun b ->
         String.concat "\n"
           (List.map (Format.asprintf "%a" Lp_ir.Printer.pp_stmt) b))
       blocks)

let prop_random =
  QCheck.Test.make ~count:300 ~name:"random blocks agree on every preset"
    (QCheck.make ~print:print_blocks
       QCheck.Gen.(list_size (int_range 1 3) random_block_gen))
    (fun blocks ->
      let dfgs = List.filter_map (fun b -> Dfg.of_segment [] b) blocks in
      List.for_all
        (fun rs ->
          match compare_segments ~what:"random" dfgs rs with
          | Ok _ -> true
          | Error msg -> QCheck.Test.fail_report msg)
        presets)

(* --- allocation ----------------------------------------------------- *)

(* Evaluating a candidate allocates its results (schedule arrays, the
   binding, the netlist) and per-call scratch arrays, not a list per
   node and control step: bound the minor words per scheduled node of
   [Candidate.evaluate] over gen:deep:1's 64 (cluster x default set)
   pairs. The rescanning scheduler allocated about 3,270 words per node
   there; this one about 110. Minor words are a count, not a timing. *)
let test_candidate_alloc () =
  let spec, seed = Result.get_ok (Lp_gen.Gen.parse_name "gen:deep:1") in
  let program = Lp_gen.Gen.generate spec ~seed in
  let profile = (Lp_ir.Interp.run program).Lp_ir.Interp.profile in
  let chain = Cluster.decompose program in
  let preselected =
    Lp_preselect.Preselect.pre_select
      (Lp_preselect.Preselect.create program chain)
      ~profile ~n_max:spec.Lp_gen.Gen.clusters
  in
  let pairs =
    List.concat_map
      (fun (c, _) -> List.map (fun rs -> (c, rs)) Resource_set.default_sets)
      preselected
  in
  let evaluate (c, rs) =
    Lp_core.Candidate.evaluate ~profile ~e_trans_j:0.0 c rs
  in
  ignore (evaluate (List.hd pairs));
  let w0 = Gc.minor_words () in
  let results = List.map evaluate pairs in
  let words = Gc.minor_words () -. w0 in
  let nodes =
    List.fold_left
      (fun acc -> function
        | None -> acc
        | Some (c : Lp_core.Candidate.t) ->
            List.fold_left
              (fun acc (s : Bind.segment_schedule) ->
                acc + Dfg.node_count s.Bind.sched.Sched.dfg)
              acc c.Lp_core.Candidate.segments)
      0 results
  in
  Alcotest.(check int) "pairs" 64 (List.length pairs);
  let per_node = words /. float_of_int nodes in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words per scheduled node (%d nodes) < 250"
       per_node nodes)
    true (per_node < 250.0)

let () =
  Alcotest.run "sched_diff"
    [
      ( "programs",
        [
          Alcotest.test_case "apps and protocol" `Quick (test_programs apps);
          Alcotest.test_case "corpus programs" `Slow (test_programs corpus);
        ] );
      ("random", [ QCheck_alcotest.to_alcotest prop_random ]);
      ( "alloc",
        [
          Alcotest.test_case "candidate evaluation per node" `Quick
            test_candidate_alloc;
        ] );
    ]
