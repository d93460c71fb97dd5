(** The complete low-power partitioning flow — Fig. 1 of the paper,
    wired to the design flow of Fig. 5:

    + profile the application (reference interpreter = the profiler),
    + build the cluster chain (Fig. 1 steps 1–2),
    + estimate bus-transfer energy and pre-select clusters (3–5),
    + for every surviving cluster and designer resource set:
      list-schedule, bind, compute [U_R^core]/[GEQ_RS] (6–10),
    + evaluate the objective function and pick the winning
      partition (11–13),
    + synthesise netlists, estimate gate-level energy (14–15), and
    + co-simulate both the initial ("I") and partitioned ("P") designs
      on the full system to produce the Table 1 numbers.

    The partitioned run is checked to produce exactly the observable
    outputs of the initial run and of the reference interpreter. *)

type options = {
  n_max : int;  (** pre-selection bound [N_max^c] (Fig. 1 line 5) *)
  resource_sets : Lp_tech.Resource_set.t list;
      (** the designer's "3 to 5 sets" *)
  f : float;  (** objective-function balance factor [F] *)
  cells0 : int;  (** hardware normalisation of the objective *)
  max_cells : int;  (** hard designer cap on one core's size *)
  config : Lp_system.System.config;
  verify_outputs : bool;
      (** fail loudly when partitioned outputs diverge (default on) *)
  asic_vdd_v : float;
      (** supply voltage of the generated cores (default: nominal
          3.3 V). Lowering it trades ASIC speed for quadratic energy —
          the multiple-voltage extension of the paper's reference
          [Hong, Kirovski et al., DAC'98]. *)
  scheduler : Candidate.scheduler;
      (** which scheduling algorithm candidate evaluation uses
          (default: the paper's list schedule). *)
  jobs : int;
      (** width of the candidate-evaluation fan-out (steps 6–12): the
          (cluster × resource set) evaluations run on a
          {!Lp_parallel.Pool} of [jobs - 1] worker domains plus the
          caller. [1] = fully sequential. Results are deterministic —
          identical to the sequential order — for any value. Default:
          {!default_jobs}. *)
  pool_threshold : int;
      (** the largest (cluster × resource set) fan-out that [run]
          evaluates sequentially; only a larger one gets a worker pool,
          because a memoized evaluation (~tens of µs) is far cheaper
          than pool spin-up (~1 ms). The default options' largest
          fan-out ([n_max] 8 × 4 sets = 32) stays sequential. Default:
          {!pool_threshold}.
          Sweeping callers — the explorer, the service daemon — tune
          it per workload. *)
}

val default_jobs : int
(** [Domain.recommended_domain_count ()] capped to \[1, 8\]. *)

val default_options : options

type selected = {
  candidate : Candidate.t;
  use_scalars : string list;
  gen_scalars : string list;
  private_arrays : string list;
  gate_energy_j : float;  (** line-15 gate-level estimate *)
  power_w : float;  (** average power of the core serving this cluster *)
}

(** A synthesised ASIC core. Adjacent selected clusters share one core:
    their segments are re-bound together so functional units are reused
    across clusters (this is what keeps the paper's hardware budget
    under ~16k cells even when a whole pipeline moves to hardware). *)
type core = {
  core_cids : int list;  (** member clusters, adjacent, ascending *)
  core_instances : (Lp_tech.Resource.kind * int) list;
  core_cells : int;
  core_power_w : float;
  core_gate_energy_j : float;
  core_bind : Lp_bind.Bind.result;  (** shared binding over all members *)
  core_segments : Lp_bind.Bind.segment_schedule list;
  core_netlist : Lp_rtl.Netlist.t;
}

type result = {
  name : string;
  program : Lp_ir.Ast.program;
  chain : Lp_cluster.Cluster.chain;
  profile : int array;
  preselected : (Lp_cluster.Cluster.t * Lp_preselect.Preselect.estimate) list;
  candidates : Candidate.t list;  (** everything evaluated (6–12) *)
  selected : selected list;
  cores : core list;
  initial : Lp_system.System.report;
  partitioned : Lp_system.System.report;
  energy_saving : float;  (** (E_I - E_P) / E_I *)
  time_change : float;  (** (T_P - T_I) / T_I; negative = faster *)
  total_cells : int;
  stage_times : (stage * float) list;
      (** wall seconds per pipeline stage, one entry per member of
          {!all_stages} in that order. [Verify] accumulates both
          verification passes; [Simulate_initial] measures the
          caller's wait for the (possibly overlapped or memoized)
          initial simulation. *)
}

(** The named stages of {!run}, in pipeline order (see {!all_stages}).
    Each stage is wrapped in an {!Lp_trace} span named
    ["flow." ^ stage_name] and billed into {!field-result.stage_times}. *)
and stage =
  | Profile  (** reference interpretation: profile + expected outputs *)
  | Cluster  (** decompose the program into the cluster chain (1–2) *)
  | Preselect  (** transfer-energy estimation + pre-selection (3–5) *)
  | Simulate_initial  (** the "I" system co-simulation (memoized) *)
  | Candidates  (** (cluster × resource set) evaluation fan-out (6–12) *)
  | Select  (** objective function, greedy partition choice (13) *)
  | Cores  (** core grouping, binding, netlists, task packaging (14–15) *)
  | Simulate_partitioned  (** the "P" system co-simulation *)
  | Verify  (** output equivalence against the reference (twice) *)

val all_stages : stage list
(** Every stage, in execution order. *)

val stage_name : stage -> string
(** Stable lowercase identifier (["profile"], ["simulate_initial"],
    …) used in trace span names, JSON exports and service stats. *)

(** {2 Stage artifacts}

    What each stage produces; the explicit hand-off records between
    pipeline stages. *)

type profiled = {
  prof_counts : int array;  (** per-statement execution counts *)
  prof_outputs : int list;  (** the reference observable outputs *)
}

type clustered = { clu_chain : Lp_cluster.Cluster.chain }

type preselection = {
  pre_state : Lp_preselect.Preselect.t;
      (** transfer-energy estimator, reused by selection synergy *)
  pre_clusters :
    (Lp_cluster.Cluster.t * Lp_preselect.Preselect.estimate) list;
}

type evaluated = {
  cand_pairs : int;  (** size of the (cluster × resource set) fan-out *)
  cand_kept : Candidate.t list;  (** evaluations that beat the uP *)
}

type selection = { sel_chosen : Candidate.t list }

type packaging = {
  pack_cores : core list;
  pack_selected : selected list;
  pack_tasks : Lp_system.System.asic_task list;
}

val core_verilog : result -> core -> string
(** Structural Verilog of a synthesised core ({!Lp_rtl.Verilog}). *)

exception Verification_failed of string

exception Cancelled of string
(** The [?cancel] token fired; the payload is the {!stage_name} of the
    stage that was about to run (or running) when the flow stopped. *)

val run :
  ?options:options ->
  ?cancel:Lp_parallel.Cancel.t ->
  name:string ->
  Lp_ir.Ast.program ->
  result
(** Run the whole flow. The candidate fan-out runs on a scratch pool
    only when [options.jobs > 1] {e and} the fan-out exceeds
    [pool_threshold]; smaller design spaces run sequentially. The trace
    counter [flow.candidates.pool_domains] records the worker domains
    spawned (0 when sequential), beside [flow.candidates.pairs]. The initial ("I") simulation runs inline
    after pre-selection, memoized by {!Memo.initial_report} on
    program × system config.

    With [?cancel], the token is polled at every stage boundary and
    per candidate evaluation (per pool chunk when parallel); a fired
    token aborts the flow at the next checkpoint with {!Cancelled},
    leaving the memo fully usable. The two
    system co-simulations are the only long uninterruptible sections.
    @raise Cancelled when [cancel] fires mid-flow.
    @raise Verification_failed when the partitioned system's outputs
    diverge from the reference (with [verify_outputs]). *)

val pool_threshold : int
(** The default of [options.pool_threshold] (32): a fan-out of more
    than 32 pairs gets a pool. *)

val pp_summary : Format.formatter -> result -> unit
