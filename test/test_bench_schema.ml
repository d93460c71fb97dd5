(* Schema check of the committed BENCH_flow.json: the benchmark file is
   the perf trajectory later changes compare against, so its shape is
   part of the repo's contract. Parses the committed file with Lp_json
   and asserts the keys and types the speed suite promises — including
   the "sim" co-simulation block and the "system-sim" stage row the
   acceptance criteria reference. The "service", "explore" and
   "corpus" blocks are optional (the serve, explore and corpus suites
   merge them in separately). *)

module Json = Lp_json

let load () =
  (* Under `dune runtest` the cwd is the test directory and the dune dep
     puts the file one level up; when run from the project root, it is
     right there. *)
  let path =
    if Sys.file_exists "../BENCH_flow.json" then "../BENCH_flow.json"
    else "BENCH_flow.json"
  in
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let field_of kind j name to_opt =
  match Option.bind (Json.member name j) to_opt with
  | Some v -> v
  | None -> Alcotest.failf "missing or mistyped %s field %S" kind name

let str j name = field_of "string" j name Json.to_string_opt
let num j name = field_of "number" j name Json.to_float_opt
let int_ j name = field_of "int" j name Json.to_int_opt
let obj j name = field_of "object" j name (fun v -> Json.to_assoc_opt v |> Option.map (fun _ -> v))
let arr j name = field_of "array" j name Json.to_list_opt

let test_schema () =
  let doc =
    match Json.parse (load ()) with
    | Ok v -> v
    | Error e -> Alcotest.failf "BENCH_flow.json does not parse: %s" e
  in
  Alcotest.(check string)
    "schema tag" "lowpart-bench-flow/1" (str doc "schema");
  Alcotest.(check bool) "jobs >= 1" true (int_ doc "jobs" >= 1);
  let apps = arr doc "apps" in
  Alcotest.(check bool) "apps non-empty" true (apps <> []);
  List.iter
    (fun a ->
      match Json.to_string_opt a with
      | Some _ -> ()
      | None -> Alcotest.fail "apps entries must be strings")
    apps;
  (* stages: array of {name, ms_per_run}, including the co-simulation
     row the acceptance criteria track. *)
  let stages = arr doc "stages" in
  let stage_names =
    List.map
      (fun s ->
        let name = str s "name" in
        let ms = num s "ms_per_run" in
        Alcotest.(check bool) (name ^ " ms_per_run >= 0") true (ms >= 0.0);
        name)
      stages
  in
  List.iter
    (fun required ->
      if not (List.mem required stage_names) then
        Alcotest.failf "stages is missing %S" required)
    [ "system-sim"; "full-flow-seq"; "full-flow-warm" ];
  (* sim: co-simulation metrics. The MIPS floor is a perf regression
     gate, not just a shape check: the block-compiled engine holds the
     committed figure above the floor on the long-trace workload, and a
     re-benchmarked BENCH_flow.json that falls under it fails tier-1
     until either the regression is fixed or the floor is consciously
     renegotiated. The number itself lives in {!Lp_bench.Gates} so this
     test and the A/B comparator can never disagree about it. *)
  let mips_floor = Lp_bench.Gates.iss_mips_floor in
  let sim = obj doc "sim" in
  Alcotest.(check bool)
    (Printf.sprintf "iss_mips >= %.0f (got %.1f)" mips_floor
       (num sim "iss_mips"))
    true
    (num sim "iss_mips" >= mips_floor);
  Alcotest.(check bool)
    "interp_msteps > 0 (IR interpreter rung)" true
    (num sim "interp_msteps" > 0.0);
  Alcotest.(check bool)
    "system_mips > 0 (ISS with the cache/memory hooks rung)" true
    (num sim "system_mips" > 0.0);
  ignore (str sim "iss_workload");
  Alcotest.(check bool)
    "iss_trace_instrs > 1000 (long trace)" true
    (int_ sim "iss_trace_instrs" > 1000);
  Alcotest.(check bool) "iss_superops > 0" true (int_ sim "iss_superops" > 0);
  Alcotest.(check bool)
    "superops amortize (> 4 instrs per dynamic entry)" true
    (int_ sim "iss_trace_instrs" > 4 * int_ sim "iss_superop_entries");
  Alcotest.(check bool)
    "initial_cold_ms > 0" true
    (num sim "initial_cold_ms" > 0.0);
  (* A memo-warm probe can be below the clock's resolution. *)
  Alcotest.(check bool)
    "initial_warm_ms >= 0" true
    (num sim "initial_warm_ms" >= 0.0);
  (* flow: suite-level timings. *)
  let flow = obj doc "flow" in
  List.iter
    (fun k -> ignore (num flow k))
    [
      "sequential_s";
      "parallel_s";
      "memo_warm_s";
      "parallel_speedup_paper";
      "memo_warm_speedup";
    ];
  Alcotest.(check bool)
    "cand_eval_us > 0 (candidate-evaluation rung)" true
    (num flow "cand_eval_us" > 0.0);
  (* The paper-app parallel figure is only meaningful when some app's
     candidate fan-out reaches the pool threshold; below it the flow
     never dispatches to the pool and the file must say so rather than
     advertise a bogus speedup (or get flagged for an honest ~1.0x).
     The above-threshold measurement lives in the corpus block. *)
  Alcotest.(check bool)
    "max_candidate_pairs counted" true
    (int_ flow "max_candidate_pairs" >= 0);
  (match Option.bind
           (Json.member "below_pool_threshold" flow)
           Json.to_bool_opt
   with
  | None -> Alcotest.fail "flow.below_pool_threshold missing or not a bool"
  | Some true -> ()
  | Some false ->
      Alcotest.(check bool)
        "paper parallel speedup must be real when above pool threshold" true
        (num flow "parallel_speedup_paper" > 1.0));
  (* flow.stages: one cold run's per-pipeline-stage wall seconds, one
     key per Flow stage in pipeline order. *)
  let flow_stages = obj flow "stages" in
  List.iter
    (fun st ->
      let k = Lp_core.Flow.stage_name st in
      Alcotest.(check bool)
        ("flow.stages." ^ k ^ " >= 0")
        true
        (num flow_stages k >= 0.0))
    Lp_core.Flow.all_stages;
  (* cache: memo statistics. *)
  let cache = obj doc "cache" in
  let cold = obj cache "cold" in
  List.iter (fun k -> ignore (int_ cold k)) [ "hits"; "misses"; "entries" ];
  ignore (num cache "warm_hit_rate");
  let f_sweep = obj cache "f_sweep" in
  Alcotest.(check bool)
    "f_sweep points non-empty" true
    (arr f_sweep "points" <> []);
  ignore (num f_sweep "rest_hit_rate");
  (* service is merged in by the serve suite; when present it must be
     an object with its own schema tag and the number of passes its
     per-request medians are taken over. *)
  (match Json.member "service" doc with
  | None -> ()
  | Some service ->
      Alcotest.(check string)
        "service schema tag" "lowpart-bench-service/1" (str service "schema");
      Alcotest.(check bool)
        "service figures are medians of >= 1 samples" true
        (int_ service "samples" >= 1));
  (* corpus is merged in by the corpus suite; when present it carries
     the generated-workload flow benches, with the host-shape fields the
     comparator's conditional speedup floor keys off. *)
  (match Json.member "corpus" doc with
  | None -> ()
  | Some corpus ->
      Alcotest.(check string)
        "corpus schema tag" "lowpart-bench-corpus/1" (str corpus "schema");
      let jobs = int_ corpus "jobs" in
      Alcotest.(check bool) "corpus jobs >= 1" true (jobs >= 1);
      Alcotest.(check bool) "corpus host_cpus >= 1" true
        (int_ corpus "host_cpus" >= 1);
      Alcotest.(check bool)
        "corpus manifest tracks >= 4 size classes" true
        (int_ corpus "manifest_entries" >= 4);
      let tasks = arr corpus "tasks" in
      Alcotest.(check bool) "corpus tasks non-empty" true (tasks <> []);
      let any_above =
        List.exists
          (fun t ->
            ignore (str t "spec");
            Alcotest.(check bool)
              (str t "spec" ^ " pairs counted")
              true
              (int_ t "pairs" >= 0);
            Option.bind (Json.member "above_pool_threshold" t) Json.to_bool_opt
            = Some true)
          tasks
      in
      Alcotest.(check bool)
        "at least one corpus task is above the pool threshold" true any_above;
      let speedup = num corpus "parallel_speedup" in
      (* The same conditional floor the comparator enforces: a real
         speedup when the flow actually fans out, sanity otherwise. *)
      Alcotest.(check bool)
        (Printf.sprintf
           "corpus parallel_speedup %.3f respects the jobs=%d floor" speedup
           jobs)
        true
        (speedup >= Lp_bench.Gates.corpus_speedup_floor ~jobs));
  (* explore is merged in by the explorer suite; when present it carries
     per-app sweep latencies and strategy-efficiency counters. *)
  (match Json.member "explore" doc with
  | None -> ()
  | Some explore ->
      Alcotest.(check string)
        "explore schema tag" "lowpart-bench-explore/1" (str explore "schema");
      Alcotest.(check bool) "explore points >= 1" true
        (int_ explore "points" >= 1);
      let apps = arr explore "apps" in
      Alcotest.(check bool) "explore apps non-empty" true (apps <> []);
      List.iter
        (fun a ->
          ignore (str a "app");
          Alcotest.(check bool)
            (str a "app" ^ " cold_points_per_s > 0")
            true
            (num a "cold_points_per_s" > 0.0);
          Alcotest.(check bool)
            (str a "app" ^ " warm misses counted")
            true
            (int_ a "warm_new_misses" >= 0);
          let anneal = obj a "anneal" in
          Alcotest.(check bool)
            (str a "app" ^ " anneal evaluated >= 1")
            true
            (int_ anneal "evaluated" >= 1))
        apps;
      let totals = obj explore "totals" in
      List.iter
        (fun k -> ignore (num totals k))
        [ "cold_s"; "warm_s"; "warm_speedup" ];
      (* The joint partition x platform sweep: the explorer bench always
         writes it, and its energy_gain is the comparator's
         explore_platform_gain metric. *)
      let ps = obj explore "platform_sweep" in
      ignore (str ps "app");
      let platforms =
        match Json.member "platforms" ps with
        | Some (Json.List l) -> List.filter_map Json.to_string_opt l
        | _ -> Alcotest.fail "platform_sweep.platforms missing"
      in
      Alcotest.(check (list string))
        "platform sweep covers every preset" Lp_tech.Platform.names platforms;
      Alcotest.(check bool) "platform sweep points >= 1" true
        (int_ ps "points" >= 1);
      List.iter
        (fun k -> ignore (num ps k))
        [ "sweep_s"; "best_energy_j"; "default_energy_j"; "energy_gain" ];
      Alcotest.(check bool)
        (Printf.sprintf "platform sweep energy_gain %.3f respects the floor"
           (num ps "energy_gain"))
        true
        (num ps "energy_gain" >= 1.0);
      Alcotest.(check string)
        "platform sweep default is the default platform"
        Lp_tech.Platform.default.Lp_tech.Platform.name
        (str ps "default_platform"))

let () =
  Alcotest.run "bench_schema"
    [
      ( "bench-flow-json",
        [ Alcotest.test_case "committed file matches schema" `Quick test_schema ]
      );
    ]
