(** The single table of benchmark regression gates.

    Both the schema lock ([test_bench_schema]) and the A/B comparator
    ({!Compare}, [bench compare]) consume this table, so an absolute
    floor (e.g. {!iss_mips_floor}) cannot drift between the test suite
    and the tooling — the failure mode this module exists to prevent:
    the floor used to be hard-coded inline in the schema test.

    Two kinds of check share one {!gate} record:

    - {e absolute}: the metric of a single BENCH document must respect
      [limit_of] (a floor or a ceiling — [limit_of] sees the document,
      so a limit can depend on context such as the recorded job count);
    - {e A/B}: given an old and a new document, the new metric may not
      {e worsen} by more than the [max_regress] factor.

    Every limit here is deliberately conservative (×2 headroom or
    more): tier-1 runs on wildly different machines, and a gate that
    cries wolf gets deleted. *)

type dir = Floor | Ceiling

type gate = {
  metric : string;  (** key in {!Compare.metrics_of_doc} output *)
  dir : dir;
  limit_of : Lp_json.t -> float option;
      (** absolute limit for this document; [None] = no absolute check
          (the metric is still A/B-compared) *)
  max_regress : float option;
      (** allowed relative worsening old→new: for a [Floor] metric the
          new value must be [>= old * (1 - f)]; for a [Ceiling] metric
          [<= old * (1 + f)]. [None] = never A/B-gated. *)
  why : string;  (** one line shown when the gate fires *)
}

val iss_mips_floor : float
(** 200.0 — the block-compiled ISS floor the schema test has enforced
    since the superop PR (any machine in CI reaches ~5x this). *)

val corpus_speedup_floor : jobs:int -> float
(** The floor for [parallel_speedup_corpus]: [1.0] when the recorded
    run actually fanned out ([jobs > 1]); [0.5] on a single-CPU host,
    where the parallel path cannot win and the gate only guards
    against the pool making things catastrophically worse. *)

val all : gate list
(** Every gate, in report order. *)

val find : string -> gate option
