(* lib/explore: Pareto frontier laws (qcheck), strategy determinism
   across jobs, the checkpoint journal (kill/resume re-evaluates
   nothing), memo sharing across explorations, frontier agreement with
   direct [Flow.run], and the [pool_threshold] option. *)

module E = Lp_explore.Explore
module Flow = Lp_core.Flow
module Memo = Lp_core.Memo
module Apps = Lp_apps.Apps
module Platform = Lp_tech.Platform
module System = Lp_system.System

(* --- generators --------------------------------------------------- *)

(* Points drawn from a small lattice so domination actually occurs;
   metrics quantised so ties occur too. *)
let point_gen =
  QCheck.Gen.(
    let* fi = int_range 0 7 in
    let* nm = int_range 1 4 in
    let* ci = int_range 1 3 in
    let* vi = int_range 0 2 in
    return
      {
        E.f = float_of_int fi /. 2.0;
        n_max = nm;
        max_cells = 1000 * ci;
        asic_vdd_v = 2.0 +. (0.5 *. float_of_int vi);
        rset = "default";
        config = "default";
        platform = "default";
      })

let metrics_gen =
  QCheck.Gen.(
    let* ei = int_range 0 20 in
    let* c = int_range 0 10 in
    let* ti = int_range (-10) 10 in
    return
      {
        E.energy_j = float_of_int ei /. 10.0;
        cells = c * 500;
        time_change = float_of_int ti /. 10.0;
        energy_saving = 1.0 -. (float_of_int ei /. 20.0);
      })

(* A log never contains two evaluations of one point with different
   metrics — the engine dedupes by point key — so the generator
   produces distinct points. *)
let log_gen =
  QCheck.Gen.(
    let* pairs = list_size (int_range 0 40) (pair point_gen metrics_gen) in
    let seen = Hashtbl.create 16 in
    return
      (List.filter_map
         (fun (p, m) ->
           if Hashtbl.mem seen p then None
           else begin
             Hashtbl.add seen p ();
             Some { E.point = p; metrics = m; from_journal = false }
           end)
         pairs))

let print_log log =
  String.concat ";"
    (List.map
       (fun (o : E.outcome) ->
         Printf.sprintf "(f=%g c=%d | e=%g c=%d t=%g)" o.point.E.f
           o.point.E.max_cells o.metrics.E.energy_j o.metrics.E.cells
           o.metrics.E.time_change)
       log)

let log_arbitrary = QCheck.make ~print:print_log log_gen

let frontier_no_internal_domination =
  QCheck.Test.make ~count:500 ~name:"no frontier point dominates another"
    log_arbitrary (fun log ->
      let f = E.pareto log in
      List.for_all
        (fun (a : E.outcome) ->
          List.for_all
            (fun (b : E.outcome) -> not (E.dominates a.metrics b.metrics))
            f)
        f)

let frontier_excludes_exactly_the_dominated =
  QCheck.Test.make ~count:500
    ~name:"a log point is excluded iff some log point dominates it"
    log_arbitrary (fun log ->
      let f = E.pareto log in
      let in_frontier o = List.exists (fun o' -> o' = o) f in
      List.for_all
        (fun (o : E.outcome) ->
          let dominated =
            List.exists
              (fun (o' : E.outcome) -> E.dominates o'.metrics o.metrics)
              log
          in
          in_frontier o = not dominated)
        log)

let frontier_permutation_invariant =
  QCheck.Test.make ~count:500 ~name:"frontier invariant under permutation"
    log_arbitrary (fun log ->
      let shuffled =
        List.sort
          (fun (a : E.outcome) b ->
            compare (Hashtbl.hash a.point) (Hashtbl.hash b.point))
          log
      in
      E.pareto log = E.pareto (List.rev log)
      && E.pareto log = E.pareto shuffled)

(* --- engine fixtures ---------------------------------------------- *)

let fixture_program () =
  let open Lp_ir.Builder in
  program
    ~arrays:[ array "a" 64 ]
    [
      func "main" ~params:[] ~locals:[ "s" ]
        [
          for_ "i" (int 0) (int 64)
            [ store "a" (var "i") ((var "i" * int 3) + int 7) ];
          for_ "i" (int 0) (int 64) [ "s" := var "s" + load "a" (var "i") ];
          print (var "s");
        ];
    ]

let small_space =
  {
    (E.space_of_options Flow.default_options) with
    E.f_values = [ 1.0; 8.0 ];
    max_cells_values = [ 8_000; 16_000 ];
  }

let outcome_essence (o : E.outcome) = (o.E.point, o.E.metrics)

let check_same_log msg (a : E.result) (b : E.result) =
  Alcotest.(check bool)
    msg true
    (List.map outcome_essence a.E.log = List.map outcome_essence b.E.log
    && List.map outcome_essence a.E.frontier
       = List.map outcome_essence b.E.frontier)

(* Same seed, different jobs: identical log and frontier. *)
let test_anneal_jobs_determinism () =
  let program = fixture_program () in
  let strategy = E.Strategy.anneal ~budget:6 ~chains:2 () in
  let run jobs =
    E.run ~strategy ~seed:42 ~jobs ~space:small_space ~name:"fixture" program
  in
  let r1 = run 1 and r4 = run 4 in
  check_same_log "jobs 1 = jobs 4" r1 r4;
  Alcotest.(check int) "budget consumed" 6 (List.length r1.E.log);
  (* And a different seed explores a different trajectory (the PRNG is
     actually wired through). *)
  let r_other =
    E.run ~strategy ~seed:43 ~jobs:1 ~space:small_space ~name:"fixture"
      program
  in
  Alcotest.(check bool)
    "seed matters" false
    (List.map (fun (o : E.outcome) -> o.E.point) r1.E.log
    = List.map (fun (o : E.outcome) -> o.E.point) r_other.E.log)

(* Grid frontier metrics agree with direct Flow.run at every frontier
   point — the explorer adds bookkeeping, never a different answer. *)
let test_frontier_matches_direct_flow () =
  let entry = Option.get (Apps.find "digs") in
  let program = entry.Apps.build () in
  let r = E.run ~space:small_space ~jobs:1 ~name:"digs" program in
  Alcotest.(check int) "grid size" 4 (List.length r.E.log);
  List.iter
    (fun (o : E.outcome) ->
      let options =
        {
          (E.options_of_point ~base:Flow.default_options small_space o.E.point)
          with
          Flow.jobs = 1;
        }
      in
      let direct = Flow.run ~options ~name:"digs" program in
      let m = E.metrics_of_result direct in
      Alcotest.(check bool)
        (Printf.sprintf "frontier point f=%g cells=%d" o.E.point.E.f
           o.E.point.E.max_cells)
        true
        (m = o.E.metrics))
    r.E.frontier

(* A second exploration over the same space re-evaluates nothing at the
   candidate level: the shared memo answers every inner evaluation. *)
let test_memo_shared_across_explorations () =
  let program = fixture_program () in
  Memo.reset ();
  let r1 = E.run ~space:small_space ~jobs:1 ~name:"fixture" program in
  let s1 = Memo.stats () in
  let r2 = E.run ~space:small_space ~jobs:1 ~name:"fixture" program in
  let s2 = Memo.stats () in
  Alcotest.(check int) "same points" (List.length r1.E.log)
    (List.length r2.E.log);
  Alcotest.(check int) "no new candidate misses" s1.Memo.misses s2.Memo.misses;
  Alcotest.(check bool) "re-exploration hits the memo" true
    (s2.Memo.hits > s1.Memo.hits)

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* Kill/resume: a journal written by a partial ("killed") exploration
   feeds a later full one, which re-evaluates only the genuinely new
   points; an identical re-run evaluates zero. *)
let test_journal_resume () =
  let program = fixture_program () in
  let journal_dir = temp_dir "lp-explore-test" in
  Fun.protect
    ~finally:(fun () -> rm_rf journal_dir)
    (fun () ->
      let subset = { small_space with E.f_values = [ 1.0 ] } in
      let partial =
        E.run ~space:subset ~jobs:1 ~journal_dir ~name:"fixture" program
      in
      Alcotest.(check int) "partial evaluates its grid" 2 partial.E.evaluated;
      Alcotest.(check int) "partial finds no checkpoints" 0
        partial.E.journal_hits;
      let resumed =
        E.run ~space:small_space ~jobs:1 ~journal_dir ~name:"fixture" program
      in
      Alcotest.(check int) "resume replays the finished points" 2
        resumed.E.journal_hits;
      Alcotest.(check int) "resume evaluates only the new points" 2
        resumed.E.evaluated;
      let rerun =
        E.run ~space:small_space ~jobs:1 ~journal_dir ~name:"fixture" program
      in
      Alcotest.(check int) "identical re-run evaluates nothing" 0
        rerun.E.evaluated;
      Alcotest.(check int) "identical re-run is all checkpoints" 4
        rerun.E.journal_hits;
      check_same_log "journal changes no result" resumed rerun;
      (* A different program must not see these checkpoints. *)
      let entry = Option.get (Apps.find "digs") in
      let other =
        E.run ~space:subset ~jobs:1 ~journal_dir ~name:"digs"
          (entry.Apps.build ())
      in
      Alcotest.(check int) "other program misses the journal" 0
        other.E.journal_hits)

(* A torn checkpoint (truncated write) is a miss, never an error. *)
let test_journal_corruption_is_a_miss () =
  let program = fixture_program () in
  let journal_dir = temp_dir "lp-explore-corrupt" in
  Fun.protect
    ~finally:(fun () -> rm_rf journal_dir)
    (fun () ->
      let subset = { small_space with E.f_values = [ 1.0 ] } in
      let _ = E.run ~space:subset ~jobs:1 ~journal_dir ~name:"fix" program in
      let rec points dir =
        List.concat_map
          (fun e ->
            let p = Filename.concat dir e in
            if Sys.is_directory p then points p
            else if Filename.check_suffix p ".entry" then [ p ]
            else [])
          (Array.to_list (Sys.readdir dir))
      in
      let files = points journal_dir in
      Alcotest.(check int) "one checkpoint per point" 2 (List.length files);
      let oc = open_out_bin (List.hd files) in
      output_string oc "lowpart-explore/1 torn";
      close_out oc;
      let r = E.run ~space:subset ~jobs:1 ~journal_dir ~name:"fix" program in
      Alcotest.(check int) "torn checkpoint re-evaluated" 1 r.E.evaluated;
      Alcotest.(check int) "intact checkpoint replayed" 1 r.E.journal_hits;
      (* Fault injection: every bit-flipped byte and every truncation of
         one checkpoint costs one re-evaluation and changes nothing but
         the provenance of that point. *)
      let log_json () =
        let r = E.run ~space:subset ~jobs:1 ~journal_dir ~name:"fix" program in
        let fresh o = { o with E.from_journal = false } in
        Lp_json.to_string
          (E.to_json
             {
               r with
               E.log = List.map fresh r.E.log;
               frontier = List.map fresh r.E.frontier;
               evaluated = 0;
               journal_hits = 0;
             })
      in
      Lp_testkit.corrupt_each_byte (List.hd files) ~expected:(log_json ())
        ~rerun:log_json)

(* Cancellation mid-exploration keeps every completed point in the
   journal; a plain grid resume replays exactly those and evaluates
   only the rest. *)
let test_cancellation_keeps_journal () =
  let program = fixture_program () in
  let journal_dir = temp_dir "lp-explore-cancel" in
  Fun.protect
    ~finally:(fun () -> rm_rf journal_dir)
    (fun () ->
      let cancel = Lp_parallel.Cancel.create () in
      (* One grid point per batch; the token fires once the second
         observation lands, so the engine's next between-batch poll
         must abort before a third point is proposed. *)
      let strategy : E.Strategy.t =
        (module struct
          let name = "drip"

          let start space ~seed:_ =
            let remaining = ref (E.grid_points space) in
            let seen = ref 0 in
            {
              E.propose =
                (fun () ->
                  match !remaining with
                  | [] -> []
                  | p :: rest ->
                      remaining := rest;
                      [ p ]);
              observe =
                (fun obs ->
                  seen := !seen + List.length obs;
                  if !seen >= 2 then Lp_parallel.Cancel.fire cancel);
            }
        end)
      in
      (match
         E.run ~strategy ~cancel ~jobs:1 ~journal_dir ~space:small_space
           ~name:"fixture" program
       with
      | _ -> Alcotest.fail "expected the exploration to abort"
      | exception Lp_parallel.Cancel.Cancelled -> ());
      let resumed =
        E.run ~jobs:1 ~journal_dir ~space:small_space ~name:"fixture" program
      in
      Alcotest.(check int) "completed points replayed" 2
        resumed.E.journal_hits;
      Alcotest.(check int) "only the remaining points evaluated" 2
        resumed.E.evaluated;
      Alcotest.(check int) "full grid in the log" 4
        (List.length resumed.E.log))

(* --- the pool_threshold option ------------------------------------ *)

let test_pool_threshold_option () =
  Alcotest.(check int)
    "default unchanged" 32 Flow.default_options.Flow.pool_threshold;
  Alcotest.(check int)
    "default mirrors the constant" Flow.pool_threshold
    Flow.default_options.Flow.pool_threshold;
  (* Forcing the threshold below the fan-out (pool path) and above it
     (sequential path) changes nothing observable. *)
  let program = fixture_program () in
  let run pool_threshold =
    let options =
      { Flow.default_options with Flow.jobs = 2; pool_threshold }
    in
    E.metrics_of_result (Flow.run ~options ~name:"fixture" program)
  in
  Alcotest.(check bool) "threshold is performance-only" true (run 1 = run 1000)

(* The default options' largest fan-out stays in one domain: a flow of
   [gen:paper:1], whose 8 preselected clusters give exactly 8 × 4 = 32
   (cluster × resource set) pairs, spawns no worker domain at
   [jobs = 2]. One pair more than the threshold does. *)
let test_default_fanout_one_domain () =
  let program =
    match Lp_gen.Gen.parse_name "gen:paper:1" with
    | Ok (spec, seed) -> Lp_gen.Gen.generate spec ~seed
    | Error e -> failwith e
  in
  let counters pool_threshold =
    let sink, events = Lp_trace.memory_sink () in
    Lp_trace.set_sink (Some sink);
    Fun.protect
      ~finally:(fun () -> Lp_trace.set_sink None)
      (fun () ->
        ignore
          (Flow.run
             ~options:{ Flow.default_options with Flow.jobs = 2; pool_threshold }
             ~name:"gen:paper:1" program));
    let value name =
      match
        List.find_opt
          (fun (e : Lp_trace.event) ->
            e.Lp_trace.ph = Lp_trace.Counter && e.Lp_trace.name = name)
          (events ())
      with
      | Some e -> e.Lp_trace.value
      | None -> Alcotest.failf "no %s counter" name
    in
    (value "flow.candidates.pairs", value "flow.candidates.pool_domains")
  in
  Alcotest.(check (pair int int))
    "32 pairs, no domain" (32, 0) (counters Flow.pool_threshold);
  Alcotest.(check (pair int int))
    "over the threshold, one domain" (32, 1)
    (counters (Flow.pool_threshold - 1))

(* --- the platform axis -------------------------------------------- *)

(* Valid sparclite variants: every combination respects the frequency
   ceiling (20 MHz peak sustains 10 MHz down to 2.4 V). The shared
   "variant" name makes the law hinge on the serialized parameters, not
   the name; sparclite itself joins the pool so the law also covers the
   default platform's empty fingerprint block. *)
let platform_variant_gen =
  QCheck.Gen.(
    let variant =
      let* vdd = oneofl [ 2.4; 3.3 ] in
      let* clock = oneofl [ 5.0; 10.0 ] in
      let* isz = oneofl [ 512; 2048 ] in
      let* lat = oneofl [ 2; 4 ] in
      return
        {
          Platform.sparclite with
          Platform.name = "variant";
          core_vdd_v = vdd;
          clock_mhz = clock;
          icache =
            {
              Platform.sparclite.Platform.icache with
              Platform.geom_size_bytes = isz;
            };
          mem_first_word_latency = lat;
        }
    in
    oneof [ variant; return Platform.sparclite ])

(* Distinct platforms key distinct memo entries; equal platforms share
   one — fingerprint equality is exactly platform equality (for a fixed
   program), so cross-platform memo hits are impossible. *)
let platform_fingerprint_law =
  let program = fixture_program () in
  let fp p =
    Memo.initial_fingerprint ~config:(System.config_of_platform p) program
  in
  QCheck.Test.make ~count:100
    ~name:"platform equality = fingerprint equality"
    (QCheck.make
       ~print:(fun (a, b) ->
         Format.asprintf "%a / %a" Platform.pp a Platform.pp b)
       QCheck.Gen.(pair platform_variant_gen platform_variant_gen))
    (fun (a, b) -> Platform.equal a b = String.equal (fp a) (fp b))

(* The sparclite platform serializes to nothing: its fingerprints are
   byte-identical to the pre-platform digests, so on-disk caches stay
   valid. The hex pin is the same one test_block_iss carries. *)
let test_platform_fingerprint_pin () =
  let entry = Option.get (Apps.find "digs") in
  let program = entry.Apps.build () in
  let fp config = Digest.to_hex (Memo.initial_fingerprint ~config program) in
  Alcotest.(check string) "sparclite config keeps the legacy digest"
    (fp System.default_config)
    (fp (System.config_of_platform Platform.sparclite));
  Alcotest.(check string) "pinned sparclite digest"
    "536a60f3c961ffe9972f4fed4b3c8414" (fp System.default_config);
  Alcotest.(check bool) "tiny config moves the digest" true
    (not
       (String.equal
          (fp (System.config_of_platform Platform.tiny))
          (fp System.default_config)))

(* Distinct base platforms give distinct journal scopes: a tiny-based
   exploration never replays sparclite checkpoints (replaying them
   would hand back wrong metrics), while its own checkpoints replay. *)
let test_journal_platform_scope () =
  let program = fixture_program () in
  let journal_dir = temp_dir "lp-explore-platform" in
  Fun.protect
    ~finally:(fun () -> rm_rf journal_dir)
    (fun () ->
      let subset = { small_space with E.f_values = [ 1.0 ] } in
      let r1 =
        E.run ~space:subset ~jobs:1 ~journal_dir ~name:"fixture" program
      in
      Alcotest.(check int) "sparclite run evaluates its points" 2
        r1.E.evaluated;
      let tiny_base =
        {
          Flow.default_options with
          Flow.config = System.config_of_platform Platform.tiny;
        }
      in
      let tiny_space =
        {
          (E.space_of_options tiny_base) with
          E.f_values = [ 1.0 ];
          max_cells_values = subset.E.max_cells_values;
        }
      in
      let r2 =
        E.run ~space:tiny_space ~jobs:1 ~journal_dir ~base:tiny_base
          ~name:"fixture" program
      in
      Alcotest.(check int) "tiny base misses the sparclite journal" 0
        r2.E.journal_hits;
      Alcotest.(check int) "tiny run evaluates its points" 2 r2.E.evaluated;
      let r3 =
        E.run ~space:tiny_space ~jobs:1 ~journal_dir ~base:tiny_base
          ~name:"fixture" program
      in
      Alcotest.(check int) "tiny journal replays for tiny" 2
        r3.E.journal_hits)

(* The joint partition x platform exploration of the acceptance
   criteria: tiny (2.4 V, 10 MHz, 512 B caches) beats sparclite on
   energy, the frontier says so, and every explored point reproduces
   under a direct Flow.run of options_of_point — the platform axis
   changes real configurations, not just labels. *)
let test_platform_dominance () =
  let entry = Option.get (Apps.find "digs") in
  let program = entry.Apps.build () in
  let space =
    {
      (E.space_of_options Flow.default_options) with
      E.f_values = [ 1.0 ];
      platform_choices =
        E.platform_axis [ Platform.sparclite; Platform.tiny ];
    }
  in
  let r = E.run ~space ~jobs:1 ~name:"digs" program in
  Alcotest.(check int) "one point per platform" 2 (List.length r.E.log);
  let energy_of name =
    List.fold_left
      (fun acc (o : E.outcome) ->
        if String.equal o.E.point.E.platform name then
          Float.min acc o.E.metrics.E.energy_j
        else acc)
      infinity r.E.log
  in
  Alcotest.(check bool) "tiny beats sparclite on energy" true
    (energy_of "tiny" < energy_of "sparclite");
  Alcotest.(check bool) "frontier carries the tiny point" true
    (List.exists
       (fun (o : E.outcome) -> String.equal o.E.point.E.platform "tiny")
       r.E.frontier);
  List.iter
    (fun (o : E.outcome) ->
      let options =
        {
          (E.options_of_point ~base:Flow.default_options space o.E.point) with
          Flow.jobs = 1;
        }
      in
      let direct = Flow.run ~options ~name:"digs" program in
      Alcotest.(check bool)
        (o.E.point.E.platform ^ " point reproduces under direct Flow.run")
        true
        (E.metrics_of_result direct = o.E.metrics))
    r.E.log

(* --- strategy names ----------------------------------------------- *)

let test_strategy_of_string () =
  let name s =
    match E.Strategy.of_string s with
    | Ok t -> E.Strategy.name t
    | Error e -> "error: " ^ e
  in
  Alcotest.(check string) "grid" "grid" (name "grid");
  Alcotest.(check string) "anneal defaults" "anneal:24:4" (name "anneal");
  Alcotest.(check string) "anneal budget" "anneal:7:4" (name "anneal:7");
  Alcotest.(check string) "anneal full" "anneal:7:2" (name "anneal:7:2");
  List.iter
    (fun s ->
      match E.Strategy.of_string s with
      | Ok _ -> Alcotest.failf "%S should not parse" s
      | Error _ -> ())
    [ "grad"; "anneal:0"; "anneal:x"; "anneal:5:0"; "anneal:5:2:9" ]

let () =
  Alcotest.run "explore"
    [
      ( "frontier",
        List.map QCheck_alcotest.to_alcotest
          [
            frontier_no_internal_domination;
            frontier_excludes_exactly_the_dominated;
            frontier_permutation_invariant;
          ] );
      ( "engine",
        [
          Alcotest.test_case "anneal deterministic across jobs" `Quick
            test_anneal_jobs_determinism;
          Alcotest.test_case "frontier matches direct Flow.run" `Quick
            test_frontier_matches_direct_flow;
          Alcotest.test_case "memo shared across explorations" `Quick
            test_memo_shared_across_explorations;
        ] );
      ( "journal",
        [
          Alcotest.test_case "kill and resume" `Quick test_journal_resume;
          Alcotest.test_case "corruption is a miss" `Quick
            test_journal_corruption_is_a_miss;
          Alcotest.test_case "cancellation keeps completed points" `Quick
            test_cancellation_keeps_journal;
        ] );
      ( "options",
        [
          Alcotest.test_case "pool_threshold" `Quick test_pool_threshold_option;
          Alcotest.test_case "default fan-out in one domain" `Quick
            test_default_fanout_one_domain;
          Alcotest.test_case "strategy names" `Quick test_strategy_of_string;
        ] );
      ( "platform",
        QCheck_alcotest.to_alcotest platform_fingerprint_law
        :: [
             Alcotest.test_case "sparclite fingerprint pin" `Quick
               test_platform_fingerprint_pin;
             Alcotest.test_case "journal scope per platform" `Quick
               test_journal_platform_scope;
             Alcotest.test_case "tiny dominates on energy" `Quick
               test_platform_dominance;
           ] );
    ]
