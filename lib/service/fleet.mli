(** [lowpart fleet]: a sharded multi-process partitioning service.

    One front {e router} process owns the client sockets and speaks
    the same line-delimited JSON protocol as the single-process
    {!Server}; N {e worker} processes (re-execs of the current binary,
    each an {!Engine} with its own domain pool and in-memory memo)
    compute. [run]/[simulate]/[explore] requests are routed by
    consistent-hashing the program-fingerprint preimage (app spec +
    IR-preparation options) onto shards with {!Ring}, so repeat
    requests for the same prepared program hit the shard whose
    in-memory memo is already hot. All shards share the persistent
    disk memo tier and explore journal dirs under one [cache_dir] —
    cross-process safe because {!Lp_core.Store} publishes entries by
    atomic temp+rename, so a concurrent reader sees either the old
    file set or the new one, never a torn entry; a corrupt entry fails
    its digest check and is recomputed.

    Per shard the router keeps a bounded in-flight window (the
    admission queue of the fleet): past it, clients get [overloaded]
    with [retry_after_ms] (the shard's recent-latency EWMA scaled by
    queue depth) and [shard] in the error object. Request lines are
    flushed to the worker pipe in batched writes. Worker stdout lines
    — responses and streamed {!Protocol.stage_event} lines alike —
    are routed back to the owning client connection through an
    id-rewriting table.

    Crash containment: a worker death (pipe EOF) fails its in-flight
    requests with the distinct [shard_lost] error code (the error
    object names the [shard]; retrying is safe — completed work
    persists in the shared disk cache) and the shard is respawned.
    [stats] and [metrics] are broadcast to all live shards and merged:
    [stats] keeps the single daemon's envelope shape (counters summed,
    [connections] the router's own, [disk_entries] folded with max);
    [metrics] answers the fleet envelope (router per-shard counters +
    raw per-shard payloads + merged totals). *)

type config = {
  socket_path : string option;  (** Unix-domain listening socket *)
  tcp_port : int option;  (** loopback TCP listening port *)
  shards : int;  (** worker processes, [>= 1] *)
  workers : int;  (** pool domains per shard, [>= 1] *)
  queue_bound : int;  (** per-shard in-flight bound before [overloaded] *)
  timeout_s : float;  (** per-request deadline (worker-enforced) *)
  cache_dir : string option;
      (** shared persistent cache root; [None] = per-shard memory only *)
  handle_signals : bool;
}

val default_config : config
(** Unix socket ["lowpart.sock"], no TCP, 2 shards, flow-default
    workers per shard, per-shard queue bound 64, 300 s timeout, cache
    under [".lowpart-cache"], signals handled. *)

type t

val maybe_exec_worker : unit -> unit
(** Worker-process entry hook. Every binary that can start a fleet
    (the CLI, the bench harness, the tests) must call this {e first}
    in main: fleet workers are spawned as
    [Sys.executable_name __lowpart-fleet-worker__ <shard> <workers>
    <queue> <timeout> <cache|->], and this call recognizes the
    sentinel argv, runs the worker loop, and exits the process. A
    no-op in every other invocation. *)

val start : config -> t
(** Bind the listeners and spawn the shard workers (each supervised:
    respawned on death until {!stop}).
    @raise Invalid_argument on a config with no endpoint,
    [shards < 1] or [workers < 1].
    @raise Unix.Unix_error when binding fails. *)

val run : t -> unit
(** Serve until a [shutdown] request, {!stop}, or a handled signal;
    then close the listeners, let every worker drain its in-flight
    requests and exit, and reap them. *)

val stop : t -> unit
(** Request shutdown from another thread. Idempotent. *)

val serve : config -> unit
(** [start] + [run]. *)
