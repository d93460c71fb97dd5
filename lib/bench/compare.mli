(** A/B comparator over BENCH_flow.json documents.

    [bench compare OLD.json NEW.json] and the tier-1 regression check
    both live here: {!metrics_of_doc} flattens a benchmark document
    into named scalar metrics, {!diff} lines up two documents and
    applies the {!Gates} table, and {!render} prints the per-key delta
    table with any gate failures.

    A metric missing from one side is reported but never fails a gate
    (schemas grow; the comparator must tolerate both directions), with
    one exception: a metric that is {e gated} and present in OLD but
    absent from NEW fails — losing a gated measurement is itself a
    regression.

    Only like runs are compared: when a block of both documents (or the
    document itself) carries a [smoke] flag or a [host_cpus] count and
    the two differ, {!diff} gates nothing and fails with one message per
    mismatch instead. *)

val metrics_of_doc : Lp_json.t -> (string * float) list
(** Named scalar metrics in report order. Tolerant of absent blocks:
    only what the document actually carries is returned. Reads both
    the current schema ([flow.parallel_speedup_paper]) and the
    pre-corpus one ([flow.parallel_speedup]). *)

type row = {
  metric : string;
  old_v : float option;
  new_v : float option;
  delta_pct : float option;  (** (new - old) / old * 100, when both *)
  failure : string option;  (** gate violation, if this row fired one *)
}

type report = { rows : row list; failures : string list }
(** [failures] collects every violation: A/B regressions from
    {!diff}, absolute-limit violations from {!check_doc}. *)

val check_doc : Lp_json.t -> string list
(** Absolute gate checks ({!Gates.gate.limit_of}) of one document. *)

val diff : old_doc:Lp_json.t -> new_doc:Lp_json.t -> report
(** Per-metric deltas plus A/B gate checks {e and} the absolute checks
    of [new_doc] (a compare run should not pass on a document that
    violates a floor outright). For unlike documents the deltas are
    still listed, but the failures are the mismatches alone. *)

val render : report -> string
(** Human-readable table, one metric per line, failures summarised at
    the bottom. Ends with a newline. *)
