(** The [lowpart serve] daemon: a long-lived partitioning service.

    One process owns a {!Lp_parallel.Pool} of worker domains and the
    (persistent, see {!Lp_core.Memo}) candidate cache; clients connect
    over a Unix-domain socket and/or loopback TCP and speak the
    line-delimited JSON protocol of {!Protocol}. Each connection gets a
    lightweight reader thread; [run]/[simulate] work is admitted
    through a bounded queue and scheduled onto the pool with
    {!Lp_parallel.Pool.submit}, so a burst of requests degrades to
    queueing (or a structured [overloaded] error past the bound), never
    to unbounded domain spawning.

    Failure containment: a malformed line, an unknown app, a failing
    flow, a request past its deadline, or a client that disconnects
    mid-run each cost exactly one error envelope (or a discarded
    response) — the daemon keeps serving. SIGINT/SIGTERM (and the
    [shutdown] request) stop accepting, drain the workers, close and
    unlink the sockets, and return from {!run}.

    Deadlines are enforced with a per-request {!Lp_parallel.Cancel}
    token: the waiter sits in {!Lp_parallel.Pool.await_until} and, if
    the deadline passes first, fires the token before answering
    [timeout] — the flow underneath aborts at its next stage, chunk or
    exploration-point boundary and the worker domain goes back to
    serving live requests. [stats] additionally reports cumulative
    per-stage flow wall times (the ["stages"] object, one entry per
    {!Lp_core.Flow.all_stages} member).

    Request semantics live in {!Engine}; this module owns only the
    sockets, the per-connection reader threads and the shutdown flag.
    A request line longer than 1 MiB without a newline is answered
    with one [bad_request] envelope and its connection is closed. A
    [stream: true] run interleaves {!Protocol.stage_event} lines on
    the connection before the response. *)

type config = {
  socket_path : string option;  (** Unix-domain listening socket *)
  tcp_port : int option;  (** loopback TCP listening port *)
  workers : int;  (** pool worker domains, [>= 1] *)
  queue_bound : int;
      (** max queued + running compute requests before [overloaded] *)
  timeout_s : float;  (** per-request compute deadline; [0.] = none *)
  cache_dir : string option;
      (** root of the persistent candidate cache; [None] = memory only *)
  handle_signals : bool;
      (** install SIGINT/SIGTERM handlers (off for in-process tests) *)
}

val default_config : config
(** Unix socket ["lowpart.sock"], no TCP, workers = flow default jobs,
    queue bound 64, 300 s timeout, cache under [".lowpart-cache"],
    signals handled. *)

type t

val start : config -> t
(** Bind and listen on the configured endpoints (unlinking a stale
    Unix socket first) and enable cache persistence. When [start]
    returns, clients can connect — {!run} then serves them.
    @raise Invalid_argument on a config with no endpoint or [workers < 1].
    @raise Unix.Unix_error when binding fails. *)

val run : t -> unit
(** Serve until a [shutdown] request, {!stop}, or a handled signal;
    then tear down (drain workers, close + unlink sockets). *)

val stop : t -> unit
(** Request shutdown from another thread; {!run} notices within its
    polling interval (≤ 0.2 s). Idempotent. *)

val serve : config -> unit
(** [start] + [run]. *)
