(** The request engine behind the [lowpart serve] daemon ({!Server}).

    One [t] owns a domain pool, the bounded admission queue, the
    request counters, cumulative per-stage flow times and the scrape
    metrics of {!Metrics}. The frontend feeds it protocol lines through
    {!handle_line} and provides the byte sink; everything else —
    dispatch, deadline/cancellation plumbing, streamed stage events,
    [stats]/[metrics] payload shapes — is engine code, and a request's
    exception always becomes one error envelope. *)

type config = {
  workers : int;  (** domain pool width, [>= 1] *)
  queue_bound : int;  (** admission bound on queued+running compute *)
  timeout_s : float;  (** per-request deadline; [<= 0.] = none *)
  cache_dir : string option;
      (** persistent memo tier (and explore journals) root *)
  shard : int option;
      (** Ignored. Kept only so record literals written against the
          earlier config (the [perfbench] harness) still compile;
          pass [None]. *)
}

type t

val create : config -> t
(** Spin up the pool and install the process-wide routed trace sink
    (unless an explicit trace sink — e.g. a [--trace] file — is
    already active, in which case streamed stage events silently
    stay off). *)

val shutdown : t -> unit
(** Drain and join the domain pool. *)

val handle_line :
  t -> emit:(string -> unit) -> on_shutdown:(unit -> unit) -> string -> unit
(** Process one request line: parse, dispatch, and [emit] the response
    line (and, for [stream: true] runs, the interleaved
    {!Protocol.stage_event} lines before it). [emit] receives one
    complete JSON object per call, without the trailing newline, and
    must be thread-safe — streamed events are emitted from pool
    domains while the calling thread waits. [on_shutdown] runs when a
    [shutdown] request is accepted (before its response is emitted).
    Blank lines are ignored. Never raises. *)

val conn_opened : t -> unit
(** Count an accepted connection (lifetime + currently-active). *)

val conn_closed : t -> unit

val list_payload : unit -> Lp_json.t
(** The [list] response payload (static). *)

val stats_payload : t -> Lp_json.t
(** The [stats] response payload: uptime, pool/queue shape, request
    counters, connection counts, memo tiers, cumulative per-stage
    seconds. *)

val metrics_payload : t -> Lp_json.t
(** The scrape-ready [metrics] payload (schema [lowpart-metrics/1]):
    pid, uptime, outcome counters, queue depth/high-water,
    latency histogram with p50/p95/p99, per-stage totals, memo hit
    rates. *)

val error_of_exn : cmd:string -> exn -> string * string
(** Map an exception escaping a request to its protocol
    [(code, message)] — cancellation and verification failures get
    their own codes. *)
