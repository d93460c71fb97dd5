type dir = Floor | Ceiling

type gate = {
  metric : string;
  dir : dir;
  limit_of : Lp_json.t -> float option;
  max_regress : float option;
  why : string;
}

let iss_mips_floor = 200.0

let corpus_speedup_floor ~jobs = if jobs > 1 then 1.0 else 0.5

let fixed v _doc = Some v

let corpus_jobs doc =
  match Lp_json.member "corpus" doc with
  | Some c -> Lp_json.int_field c "jobs"
  | None -> None

let all =
  [
    {
      metric = "interp_msteps";
      dir = Floor;
      limit_of = (fun _ -> None);
      (* First rung of the ladder: tracked from run to run, not gated
         until its spread on a host is known. *)
      max_regress = None;
      why = "IR interpreter throughput on the mpg profile; informational";
    };
    {
      metric = "system_mips";
      dir = Floor;
      limit_of = (fun _ -> None);
      (* Second ISS rung: reported like the interpreter's, not gated. *)
      max_regress = None;
      why =
        "ISS throughput with System's cache/memory hooks; informational";
    };
    {
      metric = "cand_eval_us";
      dir = Ceiling;
      limit_of = (fun _ -> None);
      (* Candidate-evaluation rung: reported, not gated, like the other
         new rungs until its spread on a host is known. *)
      max_regress = None;
      why =
        "Candidate.evaluate per pair on gen:deep:1 (no memo); informational";
    };
    {
      metric = "iss_mips";
      dir = Floor;
      limit_of = fixed iss_mips_floor;
      max_regress = Some 0.6;
      why = "block-compiled ISS throughput (the superop PR's floor)";
    };
    {
      metric = "system_sim_ms";
      dir = Ceiling;
      limit_of = fixed 50.0;
      max_regress = Some 3.0;
      why = "per-run system co-simulation time on the paper apps";
    };
    {
      metric = "full_flow_seq_ms";
      dir = Ceiling;
      limit_of = fixed 100.0;
      max_regress = Some 3.0;
      why = "sequential full-flow latency on the paper apps";
    };
    {
      metric = "memo_warm_speedup";
      dir = Floor;
      limit_of = fixed 0.8;
      max_regress = Some 0.5;
      why = "a warm memo cache must not make the flow slower";
    };
    {
      metric = "parallel_speedup_paper";
      dir = Floor;
      limit_of = (fun _ -> None);
      (* The six paper apps sit below the pool threshold by design:
         ~1.0 expected, pure noise — reported, never gated. *)
      max_regress = None;
      why = "paper apps are below the pool threshold; informational";
    };
    {
      metric = "parallel_speedup_corpus";
      dir = Floor;
      limit_of =
        (fun doc ->
          match corpus_jobs doc with
          | None -> None
          | Some jobs -> Some (corpus_speedup_floor ~jobs));
      max_regress = Some 0.4;
      why =
        "above-threshold corpus apps must gain from the pool when the \
         host has CPUs to fan out to (floor 1.0 iff jobs > 1)";
    };
    {
      metric = "corpus_flow_ms";
      dir = Ceiling;
      limit_of = (fun _ -> None);
      max_regress = Some 3.0;
      why = "total corpus flow-bench time";
    };
    {
      metric = "explore_platform_gain";
      dir = Floor;
      limit_of = fixed 1.0;
      max_regress = Some 0.5;
      why =
        "the joint partition x platform sweep must find a platform whose \
         best point is at least as good as the default platform's \
         (gain = default best energy / overall best energy)";
    };
  ]

let find metric = List.find_opt (fun g -> String.equal g.metric metric) all
