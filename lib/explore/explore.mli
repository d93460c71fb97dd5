(** Multi-objective design-space exploration over the partitioning
    flow — the designer's interaction loop of the paper's Section 3.5
    ("defining several sets of resources, defining constraints ... or
    modifying the objective function") turned into a subsystem.

    A {!space} spans the designer-facing dimensions of
    {!Lp_core.Flow.options}: the objective factor [F], the
    pre-selection bound [N_max], the hardware budget [max_cells], the
    ASIC supply voltage, alternative resource-set menus and alternative
    system (cache/memory) configurations. A {!Strategy} walks the
    space — exhaustively ({!Strategy.grid}) or adaptively
    ({!Strategy.anneal}, simulated annealing over the continuous axes
    with an explicit, seeded PRNG) — and {!run} evaluates every
    proposed point with the full {!Lp_core.Flow.run}, fanning the
    points of each batch out on one shared {!Lp_parallel.Pool} while
    every evaluation shares the process-global {!Lp_core.Memo} tiers.
    The result is the {e Pareto frontier} over (partitioned-system
    energy, ASIC cells, execution-time change) plus the full
    evaluated-point log.

    {2 Determinism}

    For a given [seed] the sequence of proposed points — and therefore
    the log and the frontier — is identical for every [jobs] value:
    strategies consume randomness only when proposing a batch, batches
    are evaluated with deterministic ordering ({!Lp_parallel.Pool.map}),
    and each point's evaluation is itself a deterministic [Flow.run].

    {2 Checkpoints}

    With [~journal_dir] every completed point is checkpointed to a
    versioned on-disk journal: one {!Lp_core.Store} entry per point,
    published atomically and checked by a payload digest, so a torn or
    corrupt checkpoint is re-evaluated. A killed exploration re-run
    with the same arguments replays finished points from the journal
    without re-evaluating them — including mid-trajectory points of an
    adaptive search, whose proposals depend only on the PRNG and the
    (replayed) observations. *)

(** One concrete assignment of every explored dimension. [rset],
    [config] and [platform] name an alternative of the space's
    [rset_choices] / [config_choices] / [platform_choices]. *)
type point = {
  f : float;
  n_max : int;
  max_cells : int;
  asic_vdd_v : float;
  rset : string;
  config : string;
  platform : string;
}

type space = {
  f_values : float list;  (** objective-factor axis (continuous) *)
  n_max_values : int list;
  max_cells_values : int list;
  vdd_values : float list;  (** supply-voltage axis (continuous) *)
  rset_choices : (string * Lp_tech.Resource_set.t list) list;
      (** named designer resource-set menus *)
  config_choices : (string * Lp_system.System.config) list;
      (** named system (cache/memory) configurations *)
  platform_choices : (string * Lp_tech.Platform.t) list;
      (** named uP platforms (core Vdd/clock, cache geometry, memory
          parameters — see {!Lp_tech.Platform}); a non-default platform
          re-derives the point's system config from the platform, so
          cache-geometry and core-Vdd axes are explored through this
          one dimension *)
}

val default_space : space
(** [F] ∈ {0.5, 1, 2, 4, 8, 16} × hardware budget ∈ {8k, 16k, 24k}
    cells, every other axis at its {!Lp_core.Flow.default_options}
    value — 18 points. *)

val space_of_options : Lp_core.Flow.options -> space
(** The one-point space whose every axis holds the given option's
    value — the base for building custom spaces. *)

val grid_points : space -> point list
(** The cartesian product of every axis, in deterministic (outer [f] →
    inner [platform]) order. *)

val platform_axis : Lp_tech.Platform.t list -> (string * Lp_tech.Platform.t) list
(** Platforms keyed by their names — the usual way to build
    [platform_choices] (e.g. from {!Lp_tech.Platform.presets}). *)

(** The three minimised objectives plus the reporting extras, read off
    one {!Lp_core.Flow.result}. *)
type metrics = {
  energy_j : float;  (** partitioned-system total energy *)
  cells : int;  (** synthesised ASIC cells *)
  time_change : float;  (** (T_P - T_I) / T_I *)
  energy_saving : float;  (** (E_I - E_P) / E_I, for reporting *)
}

val metrics_of_result : Lp_core.Flow.result -> metrics

val dominates : metrics -> metrics -> bool
(** [dominates a b]: [a] is no worse than [b] on every objective
    (energy, cells, time change) and strictly better on at least
    one. *)

type outcome = {
  point : point;
  metrics : metrics;
  from_journal : bool;  (** replayed from a checkpoint, not evaluated *)
}

val pareto : outcome list -> outcome list
(** Non-dominated subset of a log (first occurrence of each distinct
    point), in canonical order — ascending (energy, cells, time change,
    point) — so the frontier is invariant under permutation of the
    input. *)

(** {2 Strategies} *)

type stepper = {
  propose : unit -> point list;
      (** next batch to evaluate; [[]] ends the exploration *)
  observe : (point * metrics) list -> unit;
      (** results of the last batch, in proposal order *)
}

(** The one interface every search strategy implements: [start] builds
    a {!stepper} whose proposals depend only on the space, the seed and
    the observations fed back so far. *)
module type STRATEGY = sig
  val name : string
  val start : space -> seed:int -> stepper
end

module Strategy : sig
  type t = (module STRATEGY)

  val grid : t
  (** Exhaustive sweep: proposes {!grid_points} as one batch. *)

  val anneal : ?budget:int -> ?chains:int -> unit -> t
  (** Simulated annealing: [chains] (default 4) independent walkers,
      [budget] (default 24) proposals in total. Continuous axes ([f],
      [asic_vdd_v]) are perturbed within the min/max of their listed
      values; discrete axes hop between alternatives with a
      temperature-scaled probability. Each chain scalarises the three
      objectives with its own random weights (normalised by the running
      min/max of everything observed), so the chains pull towards
      different regions of the frontier. *)

  val name : t -> string
  (** ["grid"] or ["anneal:<budget>:<chains>"] — {!of_string} parses
      either back, so a JSON report alone reproduces the run. *)

  val of_string : string -> (t, string) result
  (** ["grid"], ["anneal"], ["anneal:<budget>"] or
      ["anneal:<budget>:<chains>"]. *)
end

(** {2 The engine} *)

type result = {
  app : string;
  strategy : string;  (** {!Strategy.name} of the strategy used *)
  seed : int;
  space : space;
  log : outcome list;  (** every proposal, in evaluation order *)
  frontier : outcome list;  (** {!pareto} of [log], canonical order *)
  evaluated : int;  (** points actually computed by this run *)
  journal_hits : int;  (** proposals replayed from the journal *)
}

val options_of_point :
  base:Lp_core.Flow.options -> space -> point -> Lp_core.Flow.options
(** The exact options a direct [Flow.run] needs to reproduce the
    point's metrics. @raise Invalid_argument when the point names an
    [rset]/[config] alternative the space does not have. *)

val run :
  ?strategy:Strategy.t ->
  ?seed:int ->
  ?jobs:int ->
  ?pool:Lp_parallel.Pool.t ->
  ?cancel:Lp_parallel.Cancel.t ->
  ?journal_dir:string ->
  ?base:Lp_core.Flow.options ->
  ?space:space ->
  name:string ->
  Lp_ir.Ast.program ->
  result
(** Explore [space] (default {!default_space}) for one application.
    Batches fan out across [jobs] domains (default [base.jobs]) on a
    pool created once for the whole search — or on the caller's
    [?pool] — with each point evaluated as one sequential, memoized
    [Flow.run ~options:(options_of_point ~base space point)]. [?base]
    (default {!Lp_core.Flow.default_options}) supplies every field the
    space does not span. With [?journal_dir] completed points are
    checkpointed and replayed (see above); each point is journaled the
    moment it completes, so an aborted exploration keeps everything it
    finished.

    With [?cancel], the token is polled between batches, between pool
    chunks and inside every point's flow stages; a fired token aborts
    with {!Lp_parallel.Cancel.Cancelled} (or the in-flight point's
    [Flow.Cancelled]), leaving the pool, the memo and the journal
    consistent — a resumed run replays every completed point from the
    journal.
    @raise Invalid_argument on an empty axis. *)

val to_json : result -> Lp_json.t
(** The full report — app, strategy, {e seed}, space, log, frontier,
    evaluation counters — as JSON; [lowpart explore --json] and the
    service's [explore] response both emit exactly this value. *)

val journal_format_version : int
(** Version of the on-disk journal entry format; bumping it orphans
    (but does not delete) every older [v<N>] directory. *)
