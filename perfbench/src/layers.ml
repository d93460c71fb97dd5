(* Per-layer probes: each layer's public entry points, timed from outside
   on the workload's own programs and options, with a [probe.<layer>]
   span around every call. Figures are per operation of the workload
   (the mean over its program list) unless a name says otherwise. *)

module J = Lp_json
module Flow = Lp_core.Flow
module System = Lp_system.System
module Engine = Lp_service.Engine
module Protocol = Lp_service.Protocol

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* Median seconds of [f] over at least [min_reps] calls, more while the
   probe is under [budget_s]. *)
let probe ?(min_reps = 3) ?(budget_s = 0.2) name f =
  let t0 = Stats.now_s () in
  let rec go n acc =
    if n >= min_reps && (Stats.now_s () -. t0 >= budget_s || n >= 101) then acc
    else
      let _, dt = Stats.time (fun () -> Lp_trace.with_span ("probe." ^ name) f) in
      go (n + 1) (dt :: acc)
  in
  Stats.median (go 0 [])

(* Median per-call seconds of a sub-microsecond-scale [f], timed in
   batches of [batch]. *)
let probe_batched ~batch name f =
  probe name (fun () ->
      for _ = 1 to batch do
        ignore (Sys.opaque_identity (f ()))
      done)
  /. float_of_int batch

type per_program = {
  interp_s : float;
  steps : int;
  iss_s : float;
  iss_instrs : int;
  sim_s : float;
  report : System.report;
  decompose_s : float;
  of_chain_s : float;
  pre_create_s : float;
  pre_select_s : float;
  pairs : int;
  direct_eval_s : float;  (** all pairs, [Candidate.evaluate] without the memo *)
  parallel_eval_s : float;  (** the same on a pool of [nproc - 1] workers *)
  decode_s : float;
  encode_s : float;
  payload_bytes : int;
}

let program_probes (p : Workload.program) (r : Flow.result) =
  let o = p.options and ast = p.ast in
  let interp = Lp_ir.Interp.run ast in
  let interp_s = probe "ir.interp" (fun () -> ignore (Lp_ir.Interp.run ast)) in
  let code, layout =
    Lp_compiler.Compiler.compile ~peephole:o.Flow.config.System.peephole ast
  in
  let data = Lp_compiler.Compiler.initial_data ast layout in
  let iss_run () =
    let t = Lp_iss.Iss.create code Lp_iss.Iss.null_hooks in
    List.iter (fun (base, img) -> Lp_iss.Iss.load_data t base img) data;
    Lp_iss.Iss.run t;
    t
  in
  let iss_instrs = (Lp_iss.Iss.result (iss_run ())).Lp_iss.Iss.instr_count in
  let iss_s = probe "iss.null_hooks" (fun () -> ignore (iss_run ())) in
  let report = System.run ~config:o.Flow.config ast in
  let sim_s =
    probe "system.run" (fun () -> ignore (System.run ~config:o.Flow.config ast))
  in
  let chain = Lp_cluster.Cluster.decompose ast in
  let decompose_s =
    probe "cluster.decompose" (fun () -> ignore (Lp_cluster.Cluster.decompose ast))
  in
  let of_chain_s =
    probe "dataflow.of_chain" (fun () ->
        ignore (Lp_dataflow.Dataflow.of_chain ast chain))
  in
  let pre = Lp_preselect.Preselect.create ast chain in
  let pre_create_s =
    probe "preselect.create" (fun () ->
        ignore (Lp_preselect.Preselect.create ast chain))
  in
  let profile = interp.Lp_ir.Interp.profile in
  let pre_select () =
    Lp_preselect.Preselect.pre_select pre ~profile ~n_max:o.Flow.n_max
  in
  let preselected = pre_select () in
  let pre_select_s =
    probe "preselect.pre_select" (fun () -> ignore (pre_select ()))
  in
  let pairs =
    List.concat_map
      (fun (c, (est : Lp_preselect.Preselect.estimate)) ->
        List.map (fun rs -> (c, est.energy_j, rs)) o.Flow.resource_sets)
      preselected
  in
  let eval (c, e_trans_j, rs) =
    Lp_core.Candidate.evaluate ~scheduler:o.Flow.scheduler ~profile ~e_trans_j c rs
  in
  let direct_eval_s =
    probe ~min_reps:1 "candidate.evaluate" (fun () -> List.iter (fun x -> ignore (eval x)) pairs)
  in
  let parallel_eval_s =
    Lp_parallel.Pool.with_pool ~domains:(Workload.nproc - 1) (fun pool ->
        probe ~min_reps:1 "parallel.map" (fun () ->
            ignore (Lp_parallel.Pool.map pool eval (Array.of_list pairs))))
  in
  let decode_s =
    probe_batched ~batch:200 "service.decode" (fun () ->
        Protocol.parse_request (J.of_string p.request))
  in
  let export = Lp_report.Export.result_json r in
  let encode_s =
    probe_batched ~batch:5 "service.encode" (fun () ->
        let payload = J.of_string (Lp_report.Export.result_json r) in
        J.to_string (Protocol.ok_response ~id:J.Null ~cmd:"run" payload))
  in
  {
    interp_s;
    steps = interp.Lp_ir.Interp.steps;
    iss_s;
    iss_instrs;
    sim_s;
    report;
    decompose_s;
    of_chain_s;
    pre_create_s;
    pre_select_s;
    pairs = List.length pairs;
    direct_eval_s;
    parallel_eval_s;
    decode_s;
    encode_s;
    payload_bytes = String.length export;
  }

(* Service overhead: [handle_line] latency minus the flow stage time the
   engine billed for that request, on a one-worker engine fed by one
   client (so each request's stage delta is its own), after a warm-up
   pass over the same lines. *)
let service_overhead_s (programs : Workload.program array) =
  let engine =
    Engine.create
      {
        Engine.workers = 1;
        queue_bound = 64;
        timeout_s = 0.0;
        cache_dir = None;
        shard = None;
      }
  in
  Fun.protect
    ~finally:(fun () -> Engine.shutdown engine)
    (fun () ->
      Array.iter (fun p -> ignore (Workload.handle engine p.Workload.request)) programs;
      let total = Array.fold_left ( +. ) 0.0 in
      Array.to_list programs
      |> List.map (fun p ->
             let s0 = total (Workload.stage_totals engine) in
             let _, dt =
               Stats.time (fun () ->
                   Lp_trace.with_span "probe.service.handle_line" (fun () ->
                       Workload.handle engine p.Workload.request))
             in
             dt -. (total (Workload.stage_totals engine) -. s0))
      |> Stats.mean)

let ms s = 1e3 *. s

let collect ~(untraced : Workload.phase) ~(traced : Workload.phase) programs
    results =
  let per =
    Array.to_list (Array.mapi (fun i p -> program_probes p results.(i)) programs)
  in
  let meanf f = Stats.mean (List.map f per) in
  let sumf f = List.fold_left (fun a x -> a +. f x) 0.0 per in
  let sumi f = List.fold_left (fun a x -> a + f x) 0 per in
  let ops (ph : Workload.phase) = float_of_int (List.length ph.samples) in
  let per_op (ph : Workload.phase) v = float_of_int v /. ops ph in
  let stage_ms =
    List.mapi
      (fun k st ->
        m ("flow." ^ Flow.stage_name st ^ "_ms") "ms" (ms traced.stage_s.(k) /. ops traced))
      Flow.all_stages
  in
  let mm = untraced.memo in
  let cache_misses f =
    float_of_int
      (sumi (fun x ->
           let s : Lp_cache.Cache.stats = f x.report in
           s.read_misses + s.write_misses))
  in
  stage_ms
  @ [
      m "ir.interp_ms" "ms" (ms (meanf (fun x -> x.interp_s)));
      m "ir.interp_msteps_per_s" "Msteps/s"
        (float_of_int (sumi (fun x -> x.steps)) /. sumf (fun x -> x.interp_s) /. 1e6);
      m "iss.null_hooks_mips" "MIPS"
        (float_of_int (sumi (fun x -> x.iss_instrs)) /. sumf (fun x -> x.iss_s) /. 1e6);
      m "system.initial_sim_ms" "ms" (ms (meanf (fun x -> x.sim_s)));
      m "system.sim_mips" "MIPS"
        (float_of_int (sumi (fun x -> x.report.System.instr_count))
        /. sumf (fun x -> x.sim_s) /. 1e6);
      m "system.instrs" "count" (float_of_int (sumi (fun x -> x.report.System.instr_count)));
      m "system.cycles" "count"
        (float_of_int (sumi (fun x -> System.total_cycles x.report)));
      m "cache.icache_misses" "count" (cache_misses (fun r -> r.System.icache_stats));
      m "cache.dcache_misses" "count" (cache_misses (fun r -> r.System.dcache_stats));
      m "memo.candidate_hits" "count" (per_op untraced mm.cand_hits);
      m "memo.candidate_misses" "count" (per_op untraced mm.cand_misses);
      m "memo.candidate_hit_ratio" "ratio"
        (let t = mm.cand_hits + mm.cand_misses in
         if t = 0 then 0.0 else float_of_int mm.cand_hits /. float_of_int t);
      m "memo.initial_hits" "count" (per_op untraced mm.init_hits);
      m "memo.initial_misses" "count" (per_op untraced mm.init_misses);
      m "memo.disk_hits" "count" (per_op untraced mm.disk_hits);
      m "cluster.decompose_ms" "ms" (ms (meanf (fun x -> x.decompose_s)));
      m "dataflow.of_chain_ms" "ms" (ms (meanf (fun x -> x.of_chain_s)));
      m "preselect.create_ms" "ms" (ms (meanf (fun x -> x.pre_create_s)));
      m "preselect.pre_select_ms" "ms" (ms (meanf (fun x -> x.pre_select_s)));
      m "candidate.pairs" "count" (meanf (fun x -> float_of_int x.pairs));
      m "candidate.eval_us" "us"
        (1e6 *. sumf (fun x -> x.direct_eval_s)
        /. float_of_int (max 1 (sumi (fun x -> x.pairs))));
      m "parallel.candidates_speedup" "ratio"
        (sumf (fun x -> x.direct_eval_s) /. sumf (fun x -> x.parallel_eval_s));
      m "service.decode_us" "us" (1e6 *. meanf (fun x -> x.decode_s));
      m "service.encode_us" "us" (1e6 *. meanf (fun x -> x.encode_s));
      m "service.payload_bytes" "bytes" (meanf (fun x -> float_of_int x.payload_bytes));
      m "service.overhead_ms" "ms" (ms (service_overhead_s programs));
      m "gc.minor_mwords_per_op" "Mwords" (untraced.minor_words /. 1e6 /. ops untraced);
      m "gc.major_collections_per_op" "count"
        (per_op untraced untraced.major_collections);
      m "trace.overhead_frac" "ratio" ((Workload.ops_per_s traced /. Workload.ops_per_s untraced) -. 1.0);
    ]

(* Which end-to-end metric each layer should move, and where (README). *)
let should_move name =
  let pre p = String.starts_with ~prefix:p name in
  if pre "flow.preselect" || pre "flow.cores" then "latency_p50_ms on gen-scale"
  else if pre "flow.profile" || pre "flow.simulate" then
    "latency_p50_ms on paper-cold and service-warm"
  else if pre "flow." then "latency_p50_ms where the stage dominates"
  else if pre "ir." then "latency_p50_ms, ops_per_s on paper-cold, service-warm"
  else if pre "iss." then "paper-cold (both sims), service-warm (P sim)"
  else if pre "system." || pre "cache." then
    "time: paper-cold most; counts must never change"
  else if pre "memo." then "service-warm up; paper-cold store path not down"
  else if pre "cluster." || pre "dataflow." || pre "preselect." then
    "ops_per_s, latency_p50_ms on gen-scale"
  else if pre "candidate." || pre "parallel." then "gen-scale only"
  else if pre "service." then "latency_p50_ms on service-warm only"
  else if pre "gc." then "latency_p50_ms, peak_rss_mb on all three"
  else "none (discounts traced numbers)"
