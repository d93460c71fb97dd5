(** Domain-safe span tracing for the partitioning pipeline.

    A process holds at most one {e sink}; when none is installed (the
    default) every tracing entry point reduces to a single atomic load
    and the traced code runs untouched — zero allocation, no
    synchronisation. With a sink installed, {!with_span} brackets a
    computation between a begin and an end event, {!counter} records a
    named integer sample, and every event carries the emitting domain
    so multi-domain traces can be demultiplexed offline.

    Two invariants hold by construction and are checked by the test
    suite's qcheck law:

    - {e balance}: every [`B] event is matched by exactly one [`E]
      event with the same name, even when the traced function raises;
    - {e nesting}: within one domain, spans close in LIFO order —
      the event stream of a single domain is a well-formed bracket
      sequence.

    The JSON-lines sink writes one object per line, modelled on the
    Chrome trace-event format:

    {[ {"ph":"B","name":"flow.profile","dom":0,"ts":5123.123456}
       {"ph":"E","name":"flow.profile","dom":0,"ts":5123.125001}
       {"ph":"C","name":"flow.candidates.pairs","dom":0,"ts":...,"value":38} ]}

    [ph] is ["B"] (span begin), ["E"] (span end) or ["C"] (counter);
    [ts] is {!now_s} seconds printed with microsecond precision: a
    monotonic clock with an arbitrary origin, so only differences
    between timestamps mean anything; [dom] is the integer id of the
    emitting domain. *)

(** {1 Events} *)

type phase =
  | Begin  (** span opens *)
  | End  (** span closes (also on exception) *)
  | Counter  (** point sample carrying {!field-event.value} *)

type event = {
  ph : phase;  (** what kind of event this is *)
  name : string;  (** span or counter name, e.g. ["flow.cluster"] *)
  ts_s : float;  (** {!now_s} at emission, seconds *)
  dom : int;  (** id of the emitting domain *)
  value : int;  (** counter sample; [0] for [Begin]/[End] *)
}

val event_json : event -> string
(** One JSON object (no trailing newline) in the format above. The
    name is JSON-escaped; [ts] is printed as a fixed-point number with
    six fractional digits. *)

(** {1 Sinks} *)

type sink
(** A consumer of events. All sinks serialise concurrent emissions
    internally, so any domain may trace at any time. *)

val null_sink : unit -> sink
(** Accepts and discards everything. Useful to measure tracing's own
    overhead. *)

val stderr_sink : unit -> sink
(** Writes JSON lines to stderr; [close] flushes but leaves stderr
    open. *)

val file_sink : string -> sink
(** [file_sink path] truncates/creates [path] and writes JSON lines to
    it. [close] flushes and closes the file descriptor (idempotent).
    @raise Sys_error if the file cannot be opened. *)

val memory_sink : unit -> sink * (unit -> event list)
(** An in-memory collector for tests: the second component returns the
    events recorded so far, in emission order. *)

val routed_sink : unit -> sink * ((event -> unit) option -> unit)
(** A per-domain demultiplexer: [routed_sink ()] returns a sink plus a
    [set_handler] function. [set_handler (Some f)] registers [f] as the
    consumer of every event emitted {e by the calling domain};
    [set_handler None] unregisters it. Events from domains with no
    registered handler are dropped. This is how the service streams one
    request's stage spans to its client while other domains trace into
    the void: the domain computing the request registers a handler for
    itself around the flow run. Handlers are called outside the
    registry lock and may do I/O; a handler must not itself emit trace
    events (that would recurse). *)

val set_sink : sink option -> unit
(** Install ([Some s]) or remove ([None]) the process-wide sink. The
    previous sink, if any, is {e not} closed — the installer owns its
    lifecycle. *)

val enabled : unit -> bool
(** Whether a sink is currently installed. *)

val close : unit -> unit
(** Close the current sink (flushing file sinks) and uninstall it.
    No-op when tracing is disabled. *)

(** {1 Emission} *)

val now_s : unit -> float
(** The clock used for event timestamps and span durations: the
    monotonic clock, in seconds from an arbitrary origin. It never steps
    back when the wall clock is reset, and it is the clock the
    benchmark harness times its ladder with. *)

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f ()] between a [Begin] and an [End]
    event named [name]. The [End] event is emitted even when [f]
    raises (the exception is re-raised). When tracing is disabled this
    is exactly [f ()]. *)

val timed_span : string -> (unit -> 'a) -> 'a * float
(** [timed_span name f] is {!with_span} that additionally returns the
    wall-clock duration of [f] in seconds — measured from the {e same}
    clock samples stamped into the emitted events, so a consumer
    summing [ts] deltas from a trace file reproduces the returned
    durations to timestamp precision. The duration is measured (and
    returned) even when tracing is disabled. *)

val counter : string -> int -> unit
(** [counter name v] emits a [Counter] event sampling [v]. No-op when
    tracing is disabled. *)
