(** Content-addressed memoization of candidate evaluation.

    One candidate evaluation (Fig. 1 steps 6–12: per-segment DFG, list
    schedule, binding, netlist, cell estimate) depends on exactly four
    inputs: the cluster's statement tree, the profiled execution counts
    of those statements, the designer resource set, and the scheduling
    algorithm. It does {e not} depend on the objective factor [F], the
    transfer energy [e_trans_j] (carried through unchanged and only read
    by the later objective evaluation), [N_max], the cache/memory
    configuration, or the ASIC supply voltage.

    {!key} serializes those four inputs structurally — statement ids
    enter only positionally, with each statement's [#ex_times] inlined,
    so two structurally identical clusters with equal profiles share a
    key even across differently-numbered programs — and hashes them
    with [Digest]. {!evaluate} is a domain-safe caching wrapper around
    {!Candidate.evaluate_prepared}: cached candidates are re-stamped
    with the caller's [e_trans_j] and the caller's cluster (its cid and
    sids, which the key leaves out) on every hit, from memory or
    disk.

    A flow evaluates every preselected cluster under every designer
    resource set, so what does not depend on the set is done once per
    cluster: {!prepare} serializes the statement half of the key, and
    the segment DFGs and uP model ({!Candidate.prepare}) are built on
    the cluster's first miss, so a warm flow never builds them.

    The cache is process-global on purpose: ablation sweeps re-run the
    whole flow per sweep point, and every (cluster × resource set) pair
    whose schedule is unaffected by the swept knob becomes a hit. The F
    sweep (bench E3) is all hits from its second point on.

    {2 Persistence}

    With {!set_persist_dir} both tiers additionally spill to disk
    through {!Store}: one checksummed file per entry under
    [dir/v{!format_version}], published atomically (unique temp file +
    rename), read back on a memory miss. A restarted process — the
    [lowpart serve] daemon in particular — keeps its warm cache across
    runs. An entry whose magic, payload digest or key does not check
    out is deleted and recomputed, never returned and never an error;
    concurrent writers racing on one key publish whole files and
    overwrite each other harmlessly, exactly like the in-memory
    table. *)

type stats = Store.stats = {
  hits : int;  (** memory + disk hits *)
  misses : int;
  entries : int;  (** in-memory entries *)
  disk_hits : int;  (** subset of [hits] served from the disk tier *)
}

type initial_stats = {
  initial_hits : int;
  initial_misses : int;
  initial_entries : int;
  initial_disk_hits : int;
}
(** Counters of the initial-report tier (see {!initial_report}) — kept
    separate from {!stats} so candidate hit/miss accounting, which
    callers assert exactly, is unaffected by initial-simulation
    probes. *)

type prepared
(** One cluster under one profile, ready to be keyed and evaluated
    under any resource set. Safe to share between domains. *)

val prepare : profile:int array -> Lp_cluster.Cluster.t -> prepared

val key :
  ?platform:Lp_tech.Platform.t ->
  scheduler:Candidate.scheduler ->
  prepared ->
  Lp_tech.Resource_set.t ->
  string
(** Digest of the evaluation inputs (16 raw bytes, not printable): the
    platform block, the scheduler, the set's bindings, then the
    statement half {!prepare} serialized. [platform] (default
    sparclite) keys the entry to the uP platform it was evaluated
    under, making cross-platform hits impossible; the default platform
    serializes to {e nothing}, so sparclite keys are byte-identical to
    pre-platform keys and existing on-disk caches stay valid. *)

val evaluate :
  ?platform:Lp_tech.Platform.t ->
  ?scheduler:Candidate.scheduler ->
  e_trans_j:float ->
  prepared ->
  Lp_tech.Resource_set.t ->
  Candidate.t option
(** Caching {!Candidate.evaluate_prepared}. Safe to call concurrently
    from many domains; two domains racing on the same cold key both
    compute it and the results (being equal) overwrite each other
    harmlessly. [platform] enters the key (see {!key}), not the
    evaluation — the ASIC datapath model is independent of the uP
    platform. *)

val stats : unit -> stats
val hit_rate : unit -> float
(** [hits / (hits + misses)], 0 before any lookup. *)

(** {2 Initial-report tier}

    The initial ("I") system simulation of a program is pure in the
    program and the system configuration, and it is re-run verbatim by
    every ablation sweep point and every warm service request. This
    tier memoizes the whole {!Lp_system.System.report} under a digest
    of program × config. It shares the persistent directory with
    candidate entries; the fingerprint tag keeps the keyspaces
    disjoint. *)

val initial_fingerprint :
  config:Lp_system.System.config -> Lp_ir.Ast.program -> string
(** Digest of the full program (entry, arrays with init images, all
    functions) and every report-relevant [System.config] field —
    including the platform, which (like {!key}) serializes to
    nothing when it is sparclite so pre-platform digests are
    unchanged. *)

val initial_report :
  config:Lp_system.System.config ->
  Lp_ir.Ast.program ->
  Lp_system.System.report
(** [System.run ~config program], memoized under
    {!initial_fingerprint}: memory, then disk (a disk hit is promoted to
    memory), then the simulation, whose report is published to both. *)

val initial_stats : unit -> initial_stats

val reset : unit -> unit
(** Drop all in-memory entries and zero the counters (bench runs use
    this to separate cold from warm timings). Disk entries are kept —
    a reset followed by a re-run models a daemon restart. *)

val format_version : int
(** Version of the on-disk entry format; bumping it orphans (but does
    not delete) every older [v<N>] directory. *)

val set_persist_dir : string option -> unit
(** Enable ([Some root]) or disable ([None]) the disk tier. The
    [root/v<N>] directory is created eagerly; nothing is pre-loaded —
    entries stream in on first use. Process-global, like the cache. *)

val persist_dir : unit -> string option

val disk_entries : unit -> int
(** Entries currently on disk (0 when persistence is off). *)
