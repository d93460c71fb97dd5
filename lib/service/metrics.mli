(** Scrape-ready service metrics: request outcomes, a log-spaced
    latency histogram with summary percentiles, and the admission-queue
    high-water mark.

    One [t] lives inside each {!Engine}. The JSON fragments here are
    schema-locked by [test_service]:

    {[ "outcomes":   {"ok": 41, "timeout": 2, ...}          (sorted keys)
       "queue":      {"depth": 3, "high_water": 9, "bound": 64}
       "latency_ms": {"buckets_ms": [...], "counts": [...],
                      "count": n, "sum_ms": s, "max_ms": m,
                      "p50_ms": ..., "p95_ms": ..., "p99_ms": ...} ]}

    Percentiles report the upper bound of the bucket where the
    cumulative count crosses the quantile (the overflow bucket reports
    the observed maximum). *)

type t

val create : unit -> t
(** Fresh metrics; the ["ok"] outcome is pre-registered so the key is
    always present in a scrape. Thread-safe. *)

val record_outcome : t -> string -> unit
(** Count one request by outcome: ["ok"] or a protocol error code. *)

val record_latency_ms : t -> float -> unit
(** Record one compute request's wall latency. *)

val observe_queue : t -> int -> unit
(** Feed the current admission-queue depth into the high-water mark. *)

val bucket_bounds_ms : float array
(** Upper bucket bounds (ms); one extra overflow bucket follows. *)

val outcomes_json : t -> Lp_json.t
val queue_json : t -> depth:int -> bound:int -> Lp_json.t
val latency_json : t -> Lp_json.t
