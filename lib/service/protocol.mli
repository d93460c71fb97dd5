(** The wire protocol of the partitioning service.

    Framing is line-delimited JSON: one request object per line, one
    response object per line, in order. The compact {!Lp_json} printer
    never emits a raw newline, so framing and syntax cannot disagree.

    {2 Requests}

    {[ {"id": <any>, "cmd": "run", "app": "digs", "options": {...}} ]}

    [id] is optional and echoed verbatim in the response (clients use
    it to correlate). [cmd] is one of [run], [simulate], [list],
    [stats], [metrics], [shutdown]; [run] and [simulate] name an
    [app], and [run] may set ["stream": true] to receive interleaved
    {!stage_event} progress lines. [options]
    (optional, [run]/[simulate]) carries the {!Lp_core.Flow.options}
    surface:

    - [f] (number) — objective balance factor
    - [n_max] (int) — pre-selection bound
    - [jobs] (int) — candidate fan-out width {e inside} this request
      (default 1: daemon parallelism comes from concurrent requests)
    - [asic_vdd_v] (number) — core supply voltage
    - [scheduler] — ["list"] or [{"fds": <stretch>}]
    - [max_cells] (int) — designer cap on one core
    - [peephole] (bool) — assembly peephole pass
    - [platform] (string) — a named uP platform, optionally with
      inline overrides ({!Lp_tech.Platform.of_spec} syntax, e.g.
      ["tiny"] or ["sparclite:vdd=2.7,clock=12"]); absent means the
      default sparclite platform and the request is byte-identical to
      a pre-platform one
    - [icache_bytes], [dcache_bytes] (int) — cache size overrides
    - [optimize] (bool), [unroll] (int) — IR preparation, as in the CLI
    - [pool_threshold] (int) — the largest candidate fan-out the flow
      evaluates without spinning up its own pool

    Override precedence: a raw field ([icache_bytes], [dcache_bytes])
    beats the named platform's value — the platform supplies the base
    configuration, explicit knobs refine it. A platform {e spec} that
    itself overrides a knob ([platform: "tiny:icache=..."]) combined
    with a raw field for the same knob is ambiguous and rejected with
    [bad_request].

    An [explore] request walks the design space of one app
    ({!Lp_explore.Explore}):

    {[ {"cmd": "explore", "app": "digs", "options": {...},
        "explore": {"strategy": "anneal:24:4", "seed": 7,
                    "f_values": [1, 4, 16],
                    "max_cells_values": [8000, 16000]}} ]}

    [options] supplies the base flow options of every point; the
    [explore] object (all fields optional) carries the [strategy]
    (["grid"], ["anneal"], ["anneal:<budget>"],
    ["anneal:<budget>:<chains>"]), the PRNG [seed] (int, default 0) and
    the axis overrides [f_values], [n_max_values], [max_cells_values],
    [vdd_values] (non-empty numeric arrays) and [platform_values] (a
    non-empty array of platform spec strings; defaults: the standard
    [f]/[max_cells] sweep of [lowpart explore], base option values for
    the rest, and the base platform as the only platform).

    {2 Responses}

    {[ {"id": <echo>, "ok": true, "cmd": "run", "result": <payload>} ]}
    {[ {"id": <echo>, "ok": false,
        "error": {"code": "unknown_app", "message": "..."}} ]}

    The [run] payload is byte-identical to one element of
    [lowpart run --json] ({!Lp_report.Export.result}); [simulate]
    answers {!Lp_report.Export.report}; [explore] answers
    {!Lp_explore.Explore.to_json} — one element of
    [lowpart explore --json]; [list] an array of
    [{"name", "description"}]; [stats] server counters plus the memo
    tiers and cumulative per-stage flow times; [metrics] the
    scrape-ready counters of {!Metrics}; [shutdown]
    [{"stopping": true}]. Error codes: [parse], [bad_request] (also a
    request line longer than the daemon's line bound),
    [unknown_cmd], [unknown_app], [overloaded] (past the admission
    bound; the error object carries [retry_after_ms]), [timeout] (the
    deadline fired — the request was cancelled and its worker freed),
    [cancelled] (the flow was cancelled mid-run; the message names the
    active stage when known), [verification_failed] (the partitioned
    design's outputs diverged from the reference), [failed]. A failing
    request always produces an [ok: false] envelope — never a dead
    daemon. *)

type run_options = {
  f : float option;
  n_max : int option;
  jobs : int option;
  asic_vdd_v : float option;
  scheduler : Lp_core.Candidate.scheduler option;
  max_cells : int option;
  peephole : bool option;
  platform : string option;
      (** a {!Lp_tech.Platform.of_spec} spec; resolved (and checked
          against raw cache overrides) by {!flow_options} *)
  icache_bytes : int option;
  dcache_bytes : int option;
  optimize : bool option;
  unroll : int option;
  pool_threshold : int option;
}

val no_options : run_options

(** The search surface of an [explore] request; [None] everywhere =
    the default sweep. [strategy] is kept as its wire string (already
    validated by {!parse_request}); {!explore_strategy} resolves it. *)
type explore_options = {
  strategy : string option;
  seed : int option;
  f_values : float list option;
  n_max_values : int list option;
  max_cells_values : int list option;
  vdd_values : float list option;
  platform_values : string list option;
      (** platform specs, one axis alternative each; resolved by
          {!explore_space} *)
}

val no_explore_options : explore_options

type request =
  | Run of { app : string; options : run_options; stream : bool }
      (** [stream = true] asks the daemon to interleave per-stage
          progress events (see {!stage_event}) before the final
          response, and makes the [run] payload carry a trailing
          ["stages"] object (so the streamed durations can be checked
          against the result's own stage times). *)
  | Simulate of { app : string; options : run_options }
  | Explore of {
      app : string;
      options : run_options;
      explore : explore_options;
    }
  | List_apps
  | Stats
  | Metrics
      (** Scrape-ready counters: outcomes, latency histogram, queue
          high-water, per-stage totals, memo hit rates. *)
  | Shutdown

val cmd_name : request -> string

val flow_options : run_options -> (Lp_core.Flow.options, string) result
(** Service-side defaults ({!Lp_core.Flow.default_options}, [jobs = 1])
    with every present override applied. The [platform] spec resolves
    first and supplies the base system config; raw fields refine it
    (see the precedence note above). [Error message] — answered as
    [bad_request] — on an unknown/invalid platform spec or a
    spec-override/raw-field conflict. *)

val explore_space :
  base:Lp_core.Flow.options ->
  explore_options ->
  (Lp_explore.Explore.space, string) result
(** The space an [explore] request walks around the resolved [base]
    (from {!flow_options}): present axis overrides win; absent
    [f_values]/[max_cells_values] default to
    {!Lp_explore.Explore.default_space}'s sweep, absent
    [n_max_values]/[vdd_values] to the base option's single value, and
    absent [platform_values] to the base platform. [Error] on an
    invalid platform spec in [platform_values]. *)

val explore_strategy :
  explore_options -> (Lp_explore.Explore.Strategy.t, string) result
(** Resolve the request's strategy string (default: grid). *)

val prepare_program : run_options -> Lp_ir.Ast.program -> Lp_ir.Ast.program
(** Apply the [optimize]/[unroll] IR preparation, as [lowpart run]
    does. *)

val request_id : Lp_json.t -> Lp_json.t
(** The [id] member of a request object ([Null] when absent — the
    echo for requests too malformed to carry one). *)

val parse_request : Lp_json.t -> (request, string * string) result
(** Decode a parsed request line; [Error (code, message)] with a
    protocol error code from the list above. *)

val request_to_json : ?id:Lp_json.t -> request -> Lp_json.t
(** Encode a request (the client side). Only overrides present in
    [options] are emitted. *)

val ok_response : id:Lp_json.t -> cmd:string -> Lp_json.t -> Lp_json.t
val error_response : id:Lp_json.t -> code:string -> message:string -> Lp_json.t

val error_response_data :
  id:Lp_json.t ->
  code:string ->
  message:string ->
  data:(string * Lp_json.t) list ->
  Lp_json.t
(** {!error_response} with extra structured fields inside the [error]
    object — [overloaded] rejections carry [retry_after_ms] (an
    EWMA-based backoff hint) this way. *)

val stage_event :
  id:Lp_json.t -> seq:int -> stage:string -> dt_s:float -> Lp_json.t
(** One streamed progress line for a [stream: true] run:

    {[ {"id": <echo>, "event": "stage", "stage": "profile",
        "seq": 0, "s": 0.00213} ]}

    Events arrive in pipeline-stage order ([seq] increments from 0)
    {e before} the final response, interleaved with other requests'
    lines on a shared connection (correlate by [id]). [s] is the
    stage's wall seconds, measured from the same clock samples as the
    result's [stages] object — the two agree byte-for-byte. *)

val is_event : Lp_json.t -> bool
(** Whether a received line is a streamed event (carries ["event"],
    no ["ok"]) rather than a response. *)

type response = {
  resp_id : Lp_json.t;
  payload : (Lp_json.t, string * string) result;
      (** [Ok payload] or [Error (code, message)] *)
  resp_error : Lp_json.t option;
      (** the raw [error] object of a failing response, for structured
          fields beyond code/message ([retry_after_ms]) *)
}

val parse_response : Lp_json.t -> (response, string) result
(** Decode a response line (the client side); [Error] only for
    envelopes that are not responses at all. *)
