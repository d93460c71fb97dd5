(* The generator's two contracts (DESIGN.md §14):

   validity — every [(class, seed)] emits a program the full flow can
   take end to end, including the Verify stage (the flow runs with
   [verify_outputs] on by default and fails loudly when the
   partitioned system diverges from the reference, so a completed
   [Flow.run] IS the property);

   determinism — [(class, seed)] is the whole identity of a workload:
   two independent generator invocations (stand-ins for two processes)
   produce byte-identical fingerprints, the flow's Memo program
   fingerprint agrees, and [-j] does not change partitioning results.

   Two corpus fingerprints are additionally golden-pinned here,
   independently of bench/corpus.json: if the generator's stream ever
   shifts, this test names the contract being broken even when someone
   "helpfully" regenerates the manifest in the same change. *)

module Gen = Lp_gen.Gen
module Flow = Lp_core.Flow
module Memo = Lp_core.Memo

let paper = Option.get (Gen.find_class "paper")

let flow_options spec =
  (* n_max = clusters: pre-selection keeps everything, so Verify covers
     whatever the objective actually selects, not a truncated chain. *)
  { Flow.default_options with Flow.n_max = spec.Gen.clusters }

(* --- validity ----------------------------------------------------- *)

let qcheck_verify =
  QCheck.Test.make ~count:8 ~name:"generated programs survive flow Verify"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let program = Gen.generate paper ~seed in
      Lp_ir.Validate.check program;
      let r =
        Flow.run ~options:(flow_options paper)
          ~name:(Gen.name paper ~seed)
          program
      in
      (* Verify ran: both reports exist and the saving is a ratio. *)
      Float.is_finite r.Flow.energy_saving
      && r.Flow.energy_saving < 1.0
      && Lp_system.System.total_energy_j r.Flow.initial > 0.0)

let every_class_generates () =
  List.iter
    (fun spec ->
      let p = Gen.generate spec ~seed:1 in
      Lp_ir.Validate.check p;
      Alcotest.(check bool)
        (spec.Gen.class_name ^ " has statements")
        true
        (Lp_ir.Ast.stmt_count p > 0))
    Gen.classes

(* --- determinism -------------------------------------------------- *)

let n_classes = List.length Gen.classes

let qcheck_deterministic =
  QCheck.Test.make ~count:16
    ~name:"two generator instances agree on (class, seed)"
    QCheck.(pair (int_bound 1_000_000) (int_bound (n_classes - 1)))
    (fun (seed, class_ix) ->
      let spec = List.nth Gen.classes class_ix in
      (* [stress] generation is ~1 s; pinning it once in the corpus is
         enough — property rounds stick to the flow-sized classes. *)
      let spec = if spec.Gen.class_name = "stress" then paper else spec in
      let a = Gen.generate spec ~seed in
      let b = Gen.generate spec ~seed in
      String.equal (Gen.fingerprint a) (Gen.fingerprint b)
      && String.equal
           (Memo.initial_fingerprint
              ~config:Lp_system.System.default_config a)
           (Memo.initial_fingerprint
              ~config:Lp_system.System.default_config b))

let jobs_levels_agree () =
  let program = Gen.generate paper ~seed:7 in
  let run jobs =
    Memo.reset ();
    Flow.run
      ~options:{ (flow_options paper) with Flow.jobs }
      ~name:"gen:paper:7" program
  in
  let r1 = run 1 in
  let r2 = run 4 in
  Alcotest.(check (float 1e-12))
    "energy saving identical at -j 1 and -j 4" r1.Flow.energy_saving
    r2.Flow.energy_saving;
  Alcotest.(check int)
    "same clusters selected"
    (List.length r1.Flow.selected)
    (List.length r2.Flow.selected);
  Alcotest.(check string)
    "Memo program fingerprint independent of jobs"
    (Memo.initial_fingerprint ~config:Lp_system.System.default_config
       r1.Flow.program)
    (Memo.initial_fingerprint ~config:Lp_system.System.default_config
       r2.Flow.program)

(* --- one memo, many programs ---------------------------------------- *)

(* The memo key leaves sids out, so a long-lived process (a daemon, an
   explore sweep) serves one program's candidates from entries another
   program stored. Flowing the six apps and forty generated programs
   through one memo must give every candidate its own chain's cluster
   and change no result against a fresh memo. *)
let shared_memo_programs () =
  let programs =
    List.map
      (fun (e : Lp_apps.Apps.entry) ->
        (e.Lp_apps.Apps.name, e.Lp_apps.Apps.build (), Flow.default_options))
      Lp_apps.Apps.all
    @ List.init 40 (fun i ->
          let seed = i + 1 in
          (Gen.name paper ~seed, Gen.generate paper ~seed, flow_options paper))
  in
  let flow (name, program, options) =
    let r = Flow.run ~options ~name program in
    { r with Flow.stage_times = [] }
  in
  Memo.reset ();
  let shared = List.map flow programs in
  let hits = (Memo.stats ()).Memo.hits in
  List.iter2
    (fun (name, _, _) (r : Flow.result) ->
      List.iter
        (fun (c : Lp_core.Candidate.t) ->
          let own = c.Lp_core.Candidate.cluster in
          if not (List.mem own r.Flow.chain) then
            Alcotest.failf "%s: candidate for cluster %d (sids %s) is not in its chain"
              name own.Lp_cluster.Cluster.cid
              (String.concat "," (List.map string_of_int (Lp_cluster.Cluster.sids own))))
        r.Flow.candidates)
    programs shared;
  Alcotest.(check bool) (Printf.sprintf "%d hits across programs" hits) true (hits > 0);
  List.iter2
    (fun ((name, _, _) as p) shared_r ->
      Memo.reset ();
      if compare (flow p) shared_r <> 0 then
        Alcotest.failf "%s: result differs from a fresh-memo run" name)
    programs shared;
  Memo.reset ()

(* --- scale guard ------------------------------------------------- *)

(* The largest class through the whole flow, Verify included, with
   [n_max] = the decomposed cluster count so pre-selection keeps every
   candidate. The
   flow's per-cluster analyses are linear in the chain (one dataflow
   artifact per program, prefix/suffix unions for Fig. 3), which puts
   this run at about a second; a quadratic stage puts it at minutes.
   The wall-clock ceiling is a 30x margin over the linear flow, so it
   only trips on a complexity regression, not on a slow host. *)
let stress_flows_linear () =
  let spec = Option.get (Gen.find_class "stress") in
  let program = Gen.generate spec ~seed:1 in
  let n_clusters = List.length (Lp_cluster.Cluster.decompose program) in
  let options =
    {
      Flow.default_options with
      Flow.n_max = n_clusters;
      jobs = 1;
      verify_outputs = true;
    }
  in
  Memo.reset ();
  let t0 = Unix.gettimeofday () in
  let r = Flow.run ~options ~name:"gen:stress:1" program in
  let dt = Unix.gettimeofday () -. t0 in
  Memo.reset ();
  Alcotest.(check bool)
    "at least the class's cluster count" true
    (List.length r.Flow.chain >= spec.Gen.clusters);
  Alcotest.(check bool)
    "pre-selection kept candidates" true (r.Flow.preselected <> []);
  Alcotest.(check bool)
    (Printf.sprintf "gen:stress:1 flowed in %.1f s (ceiling 30 s)" dt)
    true (dt < 30.0)

(* --- golden pins -------------------------------------------------- *)

let golden_pins () =
  List.iter
    (fun (cls, seed, expect) ->
      let spec = Option.get (Gen.find_class cls) in
      Alcotest.(check string)
        (Printf.sprintf "gen:%s:%d fingerprint pinned" cls seed)
        expect
        (Gen.fingerprint (Gen.generate spec ~seed)))
    [
      ("paper", 1, "6585774178f80b83009006ac6c2fa92c");
      ("deep", 1, "7cd424d883ddc689d78e21f7b6e00a91");
    ]

(* --- spec names --------------------------------------------------- *)

let parse_names () =
  (match Gen.parse_name "gen:paper:3" with
  | Ok (spec, 3) ->
      Alcotest.(check string) "class" "paper" spec.Gen.class_name
  | Ok _ -> Alcotest.fail "wrong seed"
  | Error e -> Alcotest.failf "gen:paper:3 should parse: %s" e);
  List.iter
    (fun bad ->
      match Gen.parse_name bad with
      | Ok _ -> Alcotest.failf "%S should not parse" bad
      | Error msg ->
          Alcotest.(check bool)
            (bad ^ " error is non-empty")
            true
            (String.length msg > 0))
    [ "gen:bogus:1"; "gen:paper"; "gen:paper:x"; "gen:paper:-2"; "mpg" ];
  Alcotest.(check bool) "is_gen_name gen:..." true (Gen.is_gen_name "gen:zz");
  Alcotest.(check bool) "is_gen_name paper app" false (Gen.is_gen_name "mpg")

let resolve_routes () =
  (match Lp_apps.Apps.resolve "gen:paper:1" with
  | Ok e ->
      Alcotest.(check string) "entry name" "gen:paper:1" e.Lp_apps.Apps.name
  | Error msg -> Alcotest.failf "resolve gen:paper:1: %s" msg);
  (match Lp_apps.Apps.resolve "gen:paper:zzz" with
  | Ok _ -> Alcotest.fail "malformed seed must not resolve"
  | Error _ -> ());
  match Lp_apps.Apps.resolve "MPG" with
  | Ok e -> Alcotest.(check string) "paper app" "mpg" e.Lp_apps.Apps.name
  | Error msg -> Alcotest.failf "resolve MPG: %s" msg

let () =
  Alcotest.run "gen"
    [
      ( "validity",
        [
          QCheck_alcotest.to_alcotest qcheck_verify;
          Alcotest.test_case "every class generates valid IR" `Quick
            every_class_generates;
        ] );
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest qcheck_deterministic;
          Alcotest.test_case "-j levels agree" `Quick jobs_levels_agree;
          Alcotest.test_case "golden corpus fingerprints" `Quick golden_pins;
        ] );
      ( "memo",
        [
          Alcotest.test_case "one memo, many programs" `Quick
            shared_memo_programs;
        ] );
      ("scale", [ Alcotest.test_case "gen:stress:1 full flow" `Quick stress_flows_linear ]);
      ( "names",
        [
          Alcotest.test_case "parse_name" `Quick parse_names;
          Alcotest.test_case "Apps.resolve routing" `Quick resolve_routes;
        ] );
    ]
