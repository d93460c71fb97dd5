module Cluster = Lp_cluster.Cluster
module Dataflow = Lp_dataflow.Dataflow
module Preselect = Lp_preselect.Preselect
module System = Lp_system.System
module Bind = Lp_bind.Bind

type options = {
  n_max : int;
  resource_sets : Lp_tech.Resource_set.t list;
  f : float;
  cells0 : int;
  max_cells : int;
  config : System.config;
  verify_outputs : bool;
  asic_vdd_v : float;
  scheduler : Candidate.scheduler;
  jobs : int;
  pool_threshold : int;
}

let default_jobs = max 1 (min 8 (Domain.recommended_domain_count ()))

(* Up to this many (cluster × resource set) pairs the candidate fan-out
   runs sequentially even when [jobs > 1]: spinning up a domain pool
   costs on the order of a millisecond, while a single memoized
   evaluation is tens of microseconds (and a warm one, microseconds) —
   a small fan-out finishes before the workers would. The default
   options give exactly this many pairs ([n_max] 8 × 4 sets), and such
   a flow stays in one domain. *)
let pool_threshold = 32

let default_options =
  {
    n_max = 8;
    resource_sets = Lp_tech.Resource_set.default_sets;
    f = Objective.default_f;
    cells0 = Objective.default_cells0;
    max_cells = 20_000;
    config = System.default_config;
    verify_outputs = true;
    asic_vdd_v = Lp_tech.Cmos6.vdd_v;
    scheduler = Candidate.List_sched;
    jobs = default_jobs;
    pool_threshold;
  }

type selected = {
  candidate : Candidate.t;
  use_scalars : string list;
  gen_scalars : string list;
  private_arrays : string list;
  gate_energy_j : float;
  power_w : float;
}

type core = {
  core_cids : int list;
  core_instances : (Lp_tech.Resource.kind * int) list;
  core_cells : int;
  core_power_w : float;
  core_gate_energy_j : float;
  core_bind : Bind.result;
  core_segments : Bind.segment_schedule list;
  core_netlist : Lp_rtl.Netlist.t;
}

type result = {
  name : string;
  program : Lp_ir.Ast.program;
  chain : Cluster.chain;
  profile : int array;
  preselected : (Cluster.t * Preselect.estimate) list;
  candidates : Candidate.t list;
  selected : selected list;
  cores : core list;
  initial : System.report;
  partitioned : System.report;
  energy_saving : float;
  time_change : float;
  total_cells : int;
  stage_times : (stage * float) list;
}

and stage =
  | Profile
  | Cluster
  | Preselect
  | Simulate_initial
  | Candidates
  | Select
  | Cores
  | Simulate_partitioned
  | Verify

let all_stages =
  [
    Profile;
    Cluster;
    Preselect;
    Simulate_initial;
    Candidates;
    Select;
    Cores;
    Simulate_partitioned;
    Verify;
  ]

let stage_name = function
  | Profile -> "profile"
  | Cluster -> "cluster"
  | Preselect -> "preselect"
  | Simulate_initial -> "simulate_initial"
  | Candidates -> "candidates"
  | Select -> "select"
  | Cores -> "cores"
  | Simulate_partitioned -> "simulate_partitioned"
  | Verify -> "verify"

let stage_rank = function
  | Profile -> 0
  | Cluster -> 1
  | Preselect -> 2
  | Simulate_initial -> 3
  | Candidates -> 4
  | Select -> 5
  | Cores -> 6
  | Simulate_partitioned -> 7
  | Verify -> 8

let n_stages = List.length all_stages

(* Stage artifacts: each pipeline stage consumes the artifacts of the
   stages before it and produces exactly one of these records, so the
   dataflow between stages is explicit in the types rather than in the
   interleaving of one long function body. *)
type profiled = { prof_counts : int array; prof_outputs : int list }
type clustered = { clu_chain : Cluster.chain }

type preselection = {
  pre_state : Preselect.t;
  pre_clusters : (Cluster.t * Preselect.estimate) list;
}

type evaluated = { cand_pairs : int; cand_kept : Candidate.t list }
type selection = { sel_chosen : Candidate.t list }

type packaging = {
  pack_cores : core list;
  pack_selected : selected list;
  pack_tasks : System.asic_task list;
}

exception Verification_failed of string
exception Cancelled of string

let log = Logs.Src.create "lp.flow" ~doc:"low-power partitioning flow"

module Log = (val Logs.src_log log)

(* Marginal objective contribution of adding one candidate: the energy
   it removes from the uP, the energy its core and transfers add, and
   its hardware term. Negative = the partition improves. *)
let marginal_of options ~e0_j ~energy_per_up_cycle cand =
  let e_up_cluster =
    energy_per_up_cycle *. float_of_int cand.Candidate.up_cycles
  in
  let de =
    cand.Candidate.e_asic_rough_j -. e_up_cluster +. cand.Candidate.e_trans_j
  in
  (options.f *. de /. e0_j)
  +. (float_of_int cand.Candidate.cells /. float_of_int options.cells0)

let select_candidates options ~e0_j ~energy_per_up_cycle ~pre candidates =
  (* Best candidate per cluster, by marginal objective value. *)
  let by_cluster = Hashtbl.create 8 in
  List.iter
    (fun c ->
      let cid = c.Candidate.cluster.Cluster.cid in
      let m = marginal_of options ~e0_j ~energy_per_up_cycle c in
      match Hashtbl.find_opt by_cluster cid with
      | Some (_, m') when m' <= m -> ()
      | Some _ | None -> Hashtbl.replace by_cluster cid (c, m))
    candidates;
  let ranked =
    Hashtbl.fold (fun _ cm acc -> cm :: acc) by_cluster []
    |> List.sort (fun (_, m1) (_, m2) -> compare m1 m2)
  in
  (* Greedy accept while the (synergy-refreshed) marginal is negative.
     Chosen cluster ids live in a hash set so the [in_asic] probe the
     synergy test runs per ranked candidate is O(1), not a scan of the
     accepted list. *)
  let chosen = ref [] in
  let chosen_cids = Hashtbl.create 16 in
  let in_asic cid = Hashtbl.mem chosen_cids cid in
  List.iter
    (fun (cand, _) ->
      let est =
        Preselect.estimate pre ~in_asic cand.Candidate.cluster.Cluster.cid
      in
      let cand = { cand with Candidate.e_trans_j = est.Preselect.energy_j } in
      let m = marginal_of options ~e0_j ~energy_per_up_cycle cand in
      if m < 0.0 then begin
        chosen := cand :: !chosen;
        Hashtbl.replace chosen_cids cand.Candidate.cluster.Cluster.cid ()
      end)
    ranked;
  List.sort
    (fun a b ->
      compare a.Candidate.cluster.Cluster.cid b.Candidate.cluster.Cluster.cid)
    !chosen

let private_arrays_of program chain ~profile ~sets_of selected_cids =
  (* A cluster that never executes any simple statement (e.g. a
     zero-trip remainder loop, whose [For] head still "runs" once)
     cannot touch an array at run time, so it must not veto privacy. *)
  let executes (c : Cluster.t) =
    Lp_ir.Ast.fold_stmts
      (fun acc (s : Lp_ir.Ast.stmt) ->
        acc
        ||
        match s.Lp_ir.Ast.node with
        | Lp_ir.Ast.Assign _ | Lp_ir.Ast.Store _ | Lp_ir.Ast.Print _
        | Lp_ir.Ast.Return _ | Lp_ir.Ast.Expr _ ->
            s.Lp_ir.Ast.sid >= 0
            && s.Lp_ir.Ast.sid < Array.length profile
            && profile.(s.Lp_ir.Ast.sid) > 0
        | Lp_ir.Ast.If _ | Lp_ir.Ast.While _ | Lp_ir.Ast.For _ -> false)
      false c.Cluster.stmts
  in
  let touched =
    List.filter_map
      (fun (c : Cluster.t) ->
        if executes c then
          let s = sets_of c.cid in
          Some (c.cid, Dataflow.Sset.union s.Dataflow.use_arrays s.Dataflow.gen_arrays)
        else None)
      chain
  in
  let all_arrays =
    List.map (fun (a : Lp_ir.Ast.array_decl) -> a.aname) program.Lp_ir.Ast.arrays
  in
  List.filter
    (fun name ->
      let touching =
        List.filter_map
          (fun (cid, arrays) ->
            if Dataflow.Sset.mem name arrays then Some cid else None)
          touched
      in
      touching <> []
      && List.for_all (fun cid -> Hashtbl.mem selected_cids cid) touching)
    all_arrays

let verify_or_fail ~what expected got =
  if expected <> got then
    raise
      (Verification_failed
         (Printf.sprintf
            "%s: outputs diverge (%d reference values, %d observed)" what
            (List.length expected) (List.length got)))

let run ?(options = default_options) ?cancel ~name program =
  (* Per-stage wall times, accumulated by canonical stage rank ([Verify]
     runs twice — after each simulation — and accumulates). Durations
     come from [Lp_trace.timed_span], i.e. from the same clock samples
     stamped into the trace events, so a trace consumer reproduces
     [stage_times] exactly. *)
  let times = Array.make n_stages 0.0 in
  let stage st f =
    (match cancel with
    | Some c when Lp_parallel.Cancel.fired c -> raise (Cancelled (stage_name st))
    | Some _ | None -> ());
    match Lp_trace.timed_span ("flow." ^ stage_name st) f with
    | v, dt ->
        times.(stage_rank st) <- times.(stage_rank st) +. dt;
        v
    | exception Lp_parallel.Cancel.Cancelled -> raise (Cancelled (stage_name st))
  in
  let check_cancel () =
    match cancel with
    | Some c -> Lp_parallel.Cancel.check c
    | None -> ()
  in
  (* Steps 1-2: profile and decompose. *)
  let { prof_counts = profile; prof_outputs = reference_outputs } =
    stage Profile (fun () ->
        let interp = Lp_ir.Interp.run program in
        {
          prof_counts = interp.Lp_ir.Interp.profile;
          prof_outputs = interp.Lp_ir.Interp.outputs;
        })
  in
  let { clu_chain = chain } =
    stage Cluster (fun () -> { clu_chain = Cluster.decompose program })
  in
  Log.debug (fun m -> m "%s: %d clusters" name (List.length chain));
  (* Steps 3-5: transfer estimation and pre-selection. *)
  let { pre_state = pre; pre_clusters = preselected } =
    stage Preselect (fun () ->
        let pre = Preselect.create program chain in
        {
          pre_state = pre;
          pre_clusters = Preselect.pre_select pre ~profile ~n_max:options.n_max;
        })
  in
  (* Initial design simulation (the "I" rows of Table 1), pure in
     (program, config) and memoized whole. *)
  let initial =
    stage Simulate_initial (fun () ->
        Memo.initial_report ~config:options.config program)
  in
  stage Verify (fun () ->
      if options.verify_outputs then
        verify_or_fail ~what:(name ^ " initial")
          reference_outputs initial.System.outputs);
  (* Steps 6-12: evaluate every surviving cluster on every set. Each
     (cluster × resource set) pair is independent, so the fan-out runs
     on a worker pool when [options.jobs > 1]; results come back in
     submission order, making the parallel candidate list identical to
     the sequential one. Evaluations themselves are memoized (Memo):
     repeated flow runs — ablation sweeps over F, N_max, voltage, the
     system config — re-use every schedule/bind/netlist whose inputs
     did not change. *)
  let { cand_pairs = _; cand_kept = candidates } =
    stage Candidates (fun () ->
        (* Each cluster is prepared once, whatever the number of sets
           it is evaluated under (see [Memo.prepare]). *)
        let pairs =
          Array.of_list
            (List.concat_map
               (fun ((cluster : Cluster.t), (est : Preselect.estimate)) ->
                 let prepared = Memo.prepare ~profile cluster in
                 List.map (fun rset -> (prepared, est, rset)) options.resource_sets)
               preselected)
        in
        Lp_trace.counter "flow.candidates.pairs" (Array.length pairs);
        let eval (prepared, (est : Preselect.estimate), rset) =
          (* The fan-out is where a large flow spends its time, so the
             token is also polled per evaluation on the sequential
             path (the pool polls it per chunk). *)
          check_cancel ();
          Memo.evaluate ~platform:options.config.System.platform
            ~scheduler:options.scheduler ~e_trans_j:est.Preselect.energy_j
            prepared rset
        in
        let pooled =
          options.jobs > 1 && Array.length pairs > options.pool_threshold
        in
        Lp_trace.counter "flow.candidates.pool_domains"
          (if pooled then options.jobs - 1 else 0);
        let evaluated =
          if not pooled then Array.map eval pairs
          else
            Lp_parallel.Pool.with_pool ~domains:(options.jobs - 1) (fun pool ->
                Lp_parallel.Pool.map ?cancel pool eval pairs)
        in
        let kept =
          Array.to_list evaluated
          |> List.filter_map (function
               | Some c
                 when Candidate.beats_up c
                      && c.Candidate.cells <= options.max_cells ->
                   Some c
               | Some _ | None -> None)
        in
        { cand_pairs = Array.length pairs; cand_kept = kept })
  in
  (* Step 13: objective function, greedy partition selection. *)
  let { sel_chosen = chosen } =
    stage Select (fun () ->
        let e0_j = System.total_energy_j initial in
        let energy_per_up_cycle =
          if initial.System.up_cycles = 0 then 0.0
          else initial.System.up_j /. float_of_int initial.System.up_cycles
        in
        {
          sel_chosen =
            select_candidates options ~e0_j ~energy_per_up_cycle ~pre
              candidates;
        })
  in
  let { pack_cores = cores; pack_selected = selected; pack_tasks = tasks } =
    stage Cores (fun () ->
  if chosen = [] then { pack_cores = []; pack_selected = []; pack_tasks = [] }
  else
  (* The gen/use sets and the later-use suffix come from the
     pre-selection artifact: one dataflow analysis per program, shared
     by the privacy analysis, the live-out filtering and the task
     packaging below. *)
  let sets_of cid = Preselect.cluster_sets pre cid in
  let selected_cids = Hashtbl.create 16 in
  List.iter
    (fun c -> Hashtbl.replace selected_cids c.Candidate.cluster.Cluster.cid ())
    chosen;
  let privates = private_arrays_of program chain ~profile ~sets_of selected_cids in
  (* Group adjacent selected clusters into shared cores: one datapath
     serves the whole run, so functional units are bound once across
     all member segments. *)
  let groups =
    List.fold_left
      (fun acc (cand : Candidate.t) ->
        let cid = cand.Candidate.cluster.Cluster.cid in
        match acc with
        | (last_cid, members) :: rest when cid = last_cid + 1 ->
            (cid, cand :: members) :: rest
        | _ -> (cid, [ cand ]) :: acc)
      [] chosen
    |> List.rev_map (fun (_, members) -> List.rev members)
  in
  let cores =
    List.map
      (fun members ->
        let segs = List.concat_map (fun c -> c.Candidate.segments) members in
        let bind_g = Bind.bind segs in
        let net = Lp_rtl.Netlist.generate bind_g segs in
        let gate_e = Lp_rtl.Gate_energy.estimate bind_g segs net in
        {
          core_cids =
            List.map (fun c -> c.Candidate.cluster.Cluster.cid) members;
          core_instances = bind_g.Bind.instances;
          core_cells = Lp_rtl.Netlist.cell_estimate net;
          core_power_w =
            Lp_rtl.Gate_energy.average_power_w ~energy_j:gate_e
              ~cycles:bind_g.Bind.n_cyc;
          core_gate_energy_j = gate_e;
          core_bind = bind_g;
          core_segments = segs;
          core_netlist = net;
        })
      groups
  in
  let core_of cid =
    List.find (fun c -> List.mem cid c.core_cids) cores
  in
  (* Steps 14-15: synthesis + gate-level energy; package for the system
     co-simulation. *)
  (* Live-out filtering: a scalar the cluster generates only crosses
     the bus if some later cluster's upward-exposed uses include it —
     dead results stay in the core (checked end-to-end by the output
     verification below). *)
  let selected =
    List.map
      (fun (cand : Candidate.t) ->
        let sets = sets_of cand.Candidate.cluster.Cluster.cid in
        let gate_energy_j =
          Lp_rtl.Gate_energy.estimate cand.Candidate.bind
            cand.Candidate.segments cand.Candidate.netlist
        in
        (* Energy is charged at the power of the (possibly shared)
           physical core that serves this cluster. *)
        let power_w =
          (core_of cand.Candidate.cluster.Cluster.cid).core_power_w
        in
        let cluster_privates =
          List.filter
            (fun a ->
              Dataflow.Sset.mem a
                (Dataflow.Sset.union sets.Dataflow.use_arrays
                   sets.Dataflow.gen_arrays))
            privates
        in
        {
          candidate = cand;
          use_scalars = Dataflow.Sset.elements sets.Dataflow.use_scalars;
          gen_scalars =
            Dataflow.Sset.elements
              (Dataflow.Sset.inter sets.Dataflow.gen_scalars
                 (Preselect.later_use_scalars pre
                    cand.Candidate.cluster.Cluster.cid));
          private_arrays = cluster_privates;
          gate_energy_j;
          power_w;
        })
      chosen
  in
  (* An FSM core clocks at its slowest functional unit plus a
     mux/controller margin; the system simulation scales its cycle
     counts accordingly. *)
  let clock_scale_of (core : core) =
    let mux_margin_s = 15e-9 in
    let slowest =
      List.fold_left
        (fun acc (k, _) -> Float.max acc (Lp_tech.Resource.cycle_time_s k))
        0.0 core.core_instances
    in
    (* Relative to the platform's system clock: a faster uP clock makes
       the same FSM critical path cost more system cycles. *)
    Float.max 1.0
      ((slowest +. mux_margin_s)
      /. Lp_tech.Platform.clock_period_s options.config.System.platform)
  in
  let array_size name =
    match Lp_ir.Ast.find_array program name with
    | Some a -> a.Lp_ir.Ast.size
    | None -> 0
  in
  let capacity = options.config.System.buffer_capacity_words in
  let tasks =
    List.map
      (fun s ->
        let cand = s.candidate in
        let cid = cand.Candidate.cluster.Cluster.cid in
        let sets = sets_of cid in
        let shared which =
          Dataflow.Sset.elements which
          |> List.filter (fun a -> not (List.mem a s.private_arrays))
        in
        let read_arrays = shared sets.Dataflow.use_arrays in
        let written_arrays = shared sets.Dataflow.gen_arrays in
        let fits a = array_size a <= capacity in
        let buffer_in_arrays =
          List.filter fits read_arrays
          |> List.map (fun a -> (a, array_size a))
        in
        let buffer_out_arrays =
          List.filter fits written_arrays
          |> List.map (fun a -> (a, array_size a))
        in
        let stream_arrays =
          List.filter (fun a -> not (fits a)) (read_arrays @ written_arrays)
          |> List.sort_uniq String.compare
        in
        {
          System.acall_id = cid;
          stmts = cand.Candidate.cluster.Cluster.stmts;
          use_scalars = s.use_scalars;
          gen_scalars = s.gen_scalars;
          private_arrays = s.private_arrays;
          buffer_in_arrays;
          buffer_out_arrays;
          stream_arrays;
          (* Voltage scaling (extension, after the paper's ref [10]):
             at supply V the core's switched energy scales (V/Vdd)^2
             while its cycles stretch by the delay ratio; the power is
             adjusted so that energy = power * stretched-time lands on
             the physical value. *)
          power_w =
            s.power_w
            *. Lp_tech.Cmos6.voltage_energy_ratio options.asic_vdd_v
            /. Lp_tech.Cmos6.voltage_delay_ratio options.asic_vdd_v;
          clock_scale =
            clock_scale_of (core_of cid)
            *. Lp_tech.Cmos6.voltage_delay_ratio options.asic_vdd_v;
          seg_lengths =
            List.map2
              (fun (seg : Cluster.segment) (ss : Bind.segment_schedule) ->
                (seg.Cluster.anchor_sid, ss.Bind.sched.Lp_sched.Sched.length))
              (Cluster.segments cand.Candidate.cluster)
              cand.Candidate.segments;
        })
      selected
  in
  { pack_cores = cores; pack_selected = selected; pack_tasks = tasks })
  in
  let partitioned =
    stage Simulate_partitioned (fun () ->
        if tasks = [] then initial
        else System.run ~config:options.config ~tasks program)
  in
  stage Verify (fun () ->
      if options.verify_outputs then
        verify_or_fail ~what:(name ^ " partitioned")
          reference_outputs partitioned.System.outputs);
  let e_i = System.total_energy_j initial in
  let e_p = System.total_energy_j partitioned in
  let t_i = System.total_cycles initial in
  let t_p = System.total_cycles partitioned in
  {
    name;
    program;
    chain;
    profile;
    preselected;
    candidates;
    selected;
    cores;
    initial;
    partitioned;
    energy_saving = (if e_i > 0.0 then (e_i -. e_p) /. e_i else 0.0);
    time_change =
      (if t_i > 0 then float_of_int (t_p - t_i) /. float_of_int t_i else 0.0);
    total_cells = List.fold_left (fun acc c -> acc + c.core_cells) 0 cores;
    stage_times = List.map (fun st -> (st, times.(stage_rank st))) all_stages;
  }

let core_verilog r core =
  (* Verilog identifiers cannot start with a digit ("3d"): prefix and
     sanitise. *)
  let sanitised =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
        | _ -> '_')
      r.name
  in
  let name =
    Printf.sprintf "lp_%s_core_%s" sanitised
      (String.concat "_" (List.map string_of_int core.core_cids))
  in
  Lp_rtl.Verilog.of_core ~name core.core_bind core.core_segments
    core.core_netlist

let pp_summary ppf r =
  Format.fprintf ppf
    "@[<v>%s: %d clusters, %d preselected, %d candidates, %d selected@,\
     initial:     %a@,\
     partitioned: %a@,\
     energy saving %.2f%%, time change %+.2f%%, cells %d@]" r.name
    (List.length r.chain)
    (List.length r.preselected)
    (List.length r.candidates)
    (List.length r.selected)
    System.pp_report r.initial System.pp_report r.partitioned
    (100.0 *. r.energy_saving)
    (100.0 *. r.time_change)
    r.total_cells
