(** Seeded synthetic workload generator.

    The six paper applications finish a full flow in ~2 ms and never
    exceed [Flow.pool_threshold], so every parallel/throughput claim
    measured on them is bottlenecked on overhead, not work. This module
    grows the workload axis: it emits {e valid} IR programs (built with
    {!Lp_ir.Builder}, so every program passes {!Lp_ir.Validate}) across
    named {{!classes} size classes} — from paper-scale up to thousands
    of clusters and hundred-thousand-instruction traces — from an
    explicit splitmix64 PRNG.

    {2 Determinism contract}

    [generate spec ~seed] is a pure function of [(spec, seed)]: the
    same pair produces a structurally identical program on every run,
    at any [-j] level, in any process — the generator touches no global
    state and owns its PRNG algorithm (splitmix64, not
    [Random.State], so no OCaml stdlib version can shift a sequence).
    {!fingerprint} canonically serializes a program and digests it;
    [bench/corpus.json] pins the fingerprint of every tracked
    [(class, seed)] pair and tier-1 regenerates and re-checks them, so
    a generator change that silently alters any tracked workload fails
    the build (see DESIGN.md §14). *)

type spec = {
  class_name : string;  (** the name [gen:<class>:<seed>] resolves *)
  description : string;
  clusters : int;  (** top-level loop/branch clusters in [main] *)
  body_min : int;  (** statements per cluster body, lower bound *)
  body_max : int;  (** ... upper bound (inclusive) *)
  iters_min : int;  (** constant loop trip count, lower bound *)
  iters_max : int;  (** ... upper bound (inclusive) *)
  nest_prob : float;  (** chance a loop wraps an inner loop *)
  branch_prob : float;  (** chance a body splits into if/else halves *)
  call_prob : float;
      (** chance a cluster calls a helper — such clusters stay in
          software ({!Lp_cluster.Cluster.asic_candidate} is false),
          keeping the partitioner's reject path exercised *)
  mem_prob : float;  (** chance a statement is an array store *)
  load_prob : float;  (** chance an expression leaf is an array load *)
  arrays : int;  (** shared-memory arrays (power-of-two sizes) *)
  array_words : int;  (** words per array; must be a power of two *)
  hot_prob : float;  (** chance a cluster gets boosted iterations *)
  hot_boost : int;  (** trip-count multiplier of hot clusters *)
  expr_depth : int;  (** max depth of generated expression trees *)
}

val classes : spec list
(** The named size classes, smallest first: [paper], [wide], [deep],
    [large], [stress]. [wide] and above exceed
    [Lp_core.Flow.pool_threshold] when the flow is run with
    [n_max >= clusters]. *)

val find_class : string -> spec option
(** Lookup by class name (case-insensitive). *)

val class_names : string list

val generate : spec -> seed:int -> Lp_ir.Ast.program
(** Deterministically generate one program. The result is validated and
    densely renumbered (built through {!Lp_ir.Builder.program}). *)

val fingerprint : Lp_ir.Ast.program -> string
(** Hex digest of a canonical structural serialization of the whole
    program (entry, arrays with init images, every function). This is
    the manifest fingerprint of [bench/corpus.json]; it depends on
    nothing but program structure — not on sids, profiles or any
    system configuration. *)

(** {2 Spec names}

    Generated apps are addressed as [gen:<class>:<seed>] everywhere a
    paper-app name is accepted ([lowpart run/explore/simulate], the
    service protocol, the bench corpus). *)

val name : spec -> seed:int -> string
(** [name spec ~seed] is ["gen:<class>:<seed>"]. *)

val parse_name : string -> (spec * int, string) result
(** Parse a [gen:<class>:<seed>] spec name. [Error msg] explains the
    malformation (unknown class, bad seed, wrong arity) and lists the
    valid classes; a string that does not start with ["gen:"] is also
    an [Error]. Seeds are non-negative decimal integers. *)

val is_gen_name : string -> bool
(** True iff the string starts with ["gen:"] (case-insensitive) — i.e.
    it should be routed to {!parse_name} rather than the paper-app
    registry, even if malformed. *)

(** {2 PRNG} *)

module Rng : sig
  (** splitmix64 — the module owns the algorithm, so a seed means the
      same stream on every OCaml version. *)

  type t

  val create : int -> t
  val next : t -> int64
  val float : t -> float
  (** Uniform in [0, 1). *)

  val int : t -> int -> int
  (** Uniform in [0, n). *)

  val range : t -> int -> int -> int
  (** [range t lo hi] is uniform in [lo, hi] (inclusive). *)

  val pick : t -> 'a list -> 'a
end
