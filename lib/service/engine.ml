(* The request engine: everything the partitioning service does that
   is not socket plumbing. One [t] owns a domain pool, the admission
   queue, counters, per-stage totals and the scrape metrics; {!Server}
   drives it through [handle_line] from per-connection reader threads,
   [emit] writing to the client socket. Keeping the request semantics
   here leaves the daemon's frontend with nothing but listeners and
   connection threads. *)

module J = Lp_json
module Pool = Lp_parallel.Pool
module Flow = Lp_core.Flow
module Memo = Lp_core.Memo
module Apps = Lp_apps.Apps
module System = Lp_system.System

type config = {
  workers : int;
  queue_bound : int;
  timeout_s : float;
  cache_dir : string option;
  shard : int option;
}

type counters = {
  mutable run : int;
  mutable simulate : int;
  mutable explore : int;
  mutable list : int;
  mutable stats : int;
  mutable metrics : int;
  mutable shutdown : int;
  mutable errors : int;
  mutable pending : int;  (** compute requests queued or running *)
  mutable connections : int;  (** accepted over the lifetime *)
  mutable active : int;  (** currently-open connections *)
}

type t = {
  cfg : config;
  pool : Pool.t;
  started_at : float;
  m : Mutex.t;  (** guards [c], [stage_totals] and [ewma_ms] *)
  c : counters;
  stage_totals : float array;
      (** cumulative wall seconds per flow stage (by [Flow.stage_rank]
          order of {!Flow.all_stages}) over completed [run] requests *)
  mutable ewma_ms : float;
      (** exponentially-weighted compute latency, feeding the
          [retry_after_ms] backoff hint on [overloaded] *)
  metrics : Metrics.t;
  set_trace_handler : (Lp_trace.event -> unit) option -> unit;
}

let counted t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) (fun () -> f t.c)

let conn_opened t =
  counted t (fun c ->
      c.connections <- c.connections + 1;
      c.active <- c.active + 1)

let conn_closed t = counted t (fun c -> c.active <- c.active - 1)

(* One process-wide routed trace sink, shared by every engine in the
   process (tests and benches run several). Installed lazily and only
   when no other sink (e.g. a --trace file) is present — streaming
   degrades to "no events" rather than hijacking an explicit trace. *)
let routed = lazy (Lp_trace.routed_sink ())

let trace_handler_setter () =
  let sink, set = Lazy.force routed in
  if not (Lp_trace.enabled ()) then Lp_trace.set_sink (Some sink);
  set

(* --- request execution -------------------------------------------- *)

(* [Apps.resolve] also accepts generated [gen:<class>:<seed>] specs; a
   malformed spec surfaces its parse error under the same [unknown_app]
   protocol code as a bad built-in name. *)
let find_app name =
  match Apps.resolve name with
  | Ok e -> Ok e
  | Error msg -> Error ("unknown_app", msg)

(* Stage-time accounting: every completed [run] folds its
   [Flow.stage_times] into the engine-wide totals surfaced by
   [stats]. *)
let record_stages t stage_times =
  Mutex.lock t.m;
  List.iteri
    (fun i (_, dt) -> t.stage_totals.(i) <- t.stage_totals.(i) +. dt)
    stage_times;
  Mutex.unlock t.m

(* Streamed progress: while [f] runs on this domain, convert its
   flow-stage spans into {!Protocol.stage_event} lines. The duration
   is [End.ts - Begin.ts] — the exact float [Flow.timed_span] bills
   into [stage_times], so the streamed values and the payload's
   ["stages"] object agree byte-for-byte once both go through the
   %.6g printers. *)
let stage_of_span =
  List.map (fun st -> ("flow." ^ Flow.stage_name st, Flow.stage_name st))
    Flow.all_stages

let with_stream t ~id emit f =
  let seq = ref 0 in
  let opens : (string, float) Hashtbl.t = Hashtbl.create 16 in
  let handler (e : Lp_trace.event) =
    match List.assoc_opt e.Lp_trace.name stage_of_span with
    | None -> ()
    | Some stage -> (
        match e.Lp_trace.ph with
        | Lp_trace.Begin -> Hashtbl.replace opens e.Lp_trace.name e.Lp_trace.ts_s
        | Lp_trace.End -> (
            match Hashtbl.find_opt opens e.Lp_trace.name with
            | None -> ()
            | Some t0 ->
                Hashtbl.remove opens e.Lp_trace.name;
                let ev =
                  Protocol.stage_event ~id ~seq:!seq ~stage
                    ~dt_s:(e.Lp_trace.ts_s -. t0)
                in
                incr seq;
                emit ev)
        | Lp_trace.Counter -> ())
  in
  t.set_trace_handler (Some handler);
  Fun.protect ~finally:(fun () -> t.set_trace_handler None) f

(* The compute body of a [run]/[simulate]/[explore] request; runs on a
   pool worker domain. Returns the response payload as JSON. [cancel]
   is the request's own token — fired by the waiter at the deadline —
   and reaches every stage/chunk/point boundary of the flow
   underneath. *)
let compute t ~cancel request =
  match request with
  | Protocol.Run { app; options; stream } -> (
      match find_app app with
      | Error e -> Error e
      | Ok e -> (
          match Protocol.flow_options options with
          | Error msg -> Error ("bad_request", msg)
          | Ok opts ->
          let program = Protocol.prepare_program options (e.Apps.build ()) in
          let r = Flow.run ~options:opts ~cancel ~name:e.Apps.name program in
          record_stages t r.Flow.stage_times;
          (* A streamed run carries the trailing "stages" object so the
             client can reconcile the streamed events against the
             result. *)
          Ok (Lp_report.Export.result ~stages:stream r)))
  | Protocol.Simulate { app; options } -> (
      match find_app app with
      | Error e -> Error e
      | Ok e -> (
          match Protocol.flow_options options with
          | Error msg -> Error ("bad_request", msg)
          | Ok opts ->
              let program =
                Protocol.prepare_program options (e.Apps.build ())
              in
              let report = System.run ~config:opts.Flow.config program in
              Ok (Lp_report.Export.report report)))
  | Protocol.Explore { app; options; explore } -> (
      match find_app app with
      | Error e -> Error e
      | Ok e -> (
          match
            let ( let* ) = Result.bind in
            let* strategy = Protocol.explore_strategy explore in
            let* base = Protocol.flow_options options in
            let* space = Protocol.explore_space ~base explore in
            Ok (strategy, base, space)
          with
          | Error msg -> Error ("bad_request", msg)
          | Ok (strategy, base, space) ->
              let program =
                Protocol.prepare_program options (e.Apps.build ())
              in
              (* Checkpoints land next to the candidate cache, so a
                 daemon restart resumes half-done explorations the same
                 way it keeps its memoized candidates. Points evaluate
                 sequentially inside the request ([jobs = 1], like
                 [run]); the pool's width is spent across requests. *)
              let journal_dir =
                Option.map
                  (fun d -> Filename.concat d "explore")
                  (Memo.persist_dir ())
              in
              let r =
                Lp_explore.Explore.run ~strategy
                  ~seed:(Option.value explore.Protocol.seed ~default:0)
                  ~jobs:1 ~cancel ?journal_dir ~base ~space
                  ~name:e.Apps.name program
              in
              (* Printed by the same Lp_json printer the CLI uses, so
                 the payload is byte-identical to one element of
                 `lowpart explore --json`. *)
              Ok (Lp_explore.Explore.to_json r)))
  | Protocol.List_apps | Protocol.Stats | Protocol.Metrics
  | Protocol.Shutdown ->
      (* Cheap requests never reach the pool. *)
      assert false

let list_payload () =
  J.List
    (List.map
       (fun (e : Apps.entry) ->
         J.Assoc
           [
             ("name", J.String e.Apps.name);
             ("description", J.String e.Apps.description);
           ])
       Apps.all)

let stats_payload t =
  let ms = Memo.stats () in
  let reqs =
    counted t (fun c ->
        [
          ("run", J.Int c.run);
          ("simulate", J.Int c.simulate);
          ("explore", J.Int c.explore);
          ("list", J.Int c.list);
          ("stats", J.Int c.stats);
          ("metrics", J.Int c.metrics);
          ("shutdown", J.Int c.shutdown);
          ("errors", J.Int c.errors);
          ("pending", J.Int c.pending);
        ])
  in
  let conns =
    counted t (fun c ->
        [ ("accepted", J.Int c.connections); ("active", J.Int c.active) ])
  in
  J.Assoc
    [
      ("uptime_s", J.Float (Unix.gettimeofday () -. t.started_at));
      ("workers", J.Int t.cfg.workers);
      ("queue_bound", J.Int t.cfg.queue_bound);
      ("requests", J.Assoc reqs);
      ("connections", J.Assoc conns);
      ( "memo",
        J.Assoc
          [
            ("hits", J.Int ms.Memo.hits);
            ("misses", J.Int ms.Memo.misses);
            ("entries", J.Int ms.Memo.entries);
            ("disk_hits", J.Int ms.Memo.disk_hits);
            ("disk_entries", J.Int (Memo.disk_entries ()));
          ] );
      ( "cache_dir",
        match Memo.persist_dir () with
        | Some d -> J.String d
        | None -> J.Null );
      ( "stages",
        J.Assoc
          (Mutex.protect t.m (fun () ->
               List.mapi
                 (fun i st ->
                   (Flow.stage_name st, J.Float t.stage_totals.(i)))
                 Flow.all_stages)) );
    ]

let metrics_payload t =
  let ms = Memo.stats () in
  let pending = counted t (fun c -> c.pending) in
  let hit_rate =
    let total = ms.Memo.hits + ms.Memo.misses in
    if total = 0 then 0.0 else float_of_int ms.Memo.hits /. float_of_int total
  in
  J.Assoc
    [
      ("schema", J.String "lowpart-metrics/1");
      ("pid", J.Int (Unix.getpid ()));
      ("uptime_s", J.Float (Unix.gettimeofday () -. t.started_at));
      ("workers", J.Int t.cfg.workers);
      ("outcomes", Metrics.outcomes_json t.metrics);
      ( "queue",
        Metrics.queue_json t.metrics ~depth:pending ~bound:t.cfg.queue_bound );
      ("latency_ms", Metrics.latency_json t.metrics);
      ( "stage_seconds",
        J.Assoc
          (Mutex.protect t.m (fun () ->
               List.mapi
                 (fun i st ->
                   (Flow.stage_name st, J.Float t.stage_totals.(i)))
                 Flow.all_stages)) );
      ( "memo",
        J.Assoc
          [
            ("hits", J.Int ms.Memo.hits);
            ("misses", J.Int ms.Memo.misses);
            ("hit_rate", J.Float hit_rate);
            ("disk_hits", J.Int ms.Memo.disk_hits);
            ("disk_entries", J.Int (Memo.disk_entries ()));
          ] );
    ]

(* Exception → structured error envelope. Cancellation and output
   verification get their own codes (with the active flow stage echoed
   when known) so clients can tell "your deadline fired" and "the
   partition is wrong" from a generic failure. *)
let error_of_exn ~cmd e =
  match e with
  | Flow.Cancelled stage ->
      ( "cancelled",
        Printf.sprintf "%s: cancelled during stage %S" cmd stage )
  | Lp_parallel.Cancel.Cancelled ->
      ("cancelled", Printf.sprintf "%s: cancelled" cmd)
  | Flow.Verification_failed msg ->
      ("verification_failed", Printf.sprintf "%s: %s" cmd msg)
  | e -> ("failed", Printf.sprintf "%s: %s" cmd (Printexc.to_string e))

(* Backoff hint shipped inside [overloaded] rejections: the EWMA of
   recent compute latencies scaled by how deep the queue already is
   relative to the pool width. Deliberately rough — a hint, not a
   promise. *)
let retry_after_ms t =
  let pending, ewma =
    Mutex.protect t.m (fun () -> (t.c.pending, t.ewma_ms))
  in
  let base = if ewma > 0.0 then ewma else 100.0 in
  max 1
    (int_of_float
       (Float.ceil (base *. float_of_int (max 1 pending)
                    /. float_of_int t.cfg.workers)))

(* Submit to the pool and wait under the request deadline with
   [Pool.await_until] (a real condition-variable wait: resolution wakes
   us immediately). Each request carries its own [Cancel] token; when
   the deadline passes, the token is fired before answering [timeout],
   so the flow aborts at its next stage/chunk/point boundary and the
   worker domain is actually freed — a blown deadline no longer burns
   a domain to the end of the run. *)
let submit_and_wait t ~emit ~id request =
  let admitted =
    counted t (fun c ->
        if c.pending >= t.cfg.queue_bound then false
        else begin
          c.pending <- c.pending + 1;
          Metrics.observe_queue t.metrics c.pending;
          true
        end)
  in
  if not admitted then
    Error
      ( "overloaded",
        Printf.sprintf "request queue is full (%d in flight)"
          t.cfg.queue_bound,
        [ ("retry_after_ms", J.Int (retry_after_ms t)) ] )
  else begin
    let cancel = Lp_parallel.Cancel.create () in
    let stream_emit =
      match request with
      | Protocol.Run { stream = true; _ } ->
          Some (fun ev -> emit (J.to_string ev))
      | _ -> None
    in
    let fut =
      Pool.submit t.pool (fun () ->
          Fun.protect
            ~finally:(fun () -> counted t (fun c -> c.pending <- c.pending - 1))
            (fun () ->
              (* A request whose token fired while still queued never
                 starts computing (the admission slot is still released
                 by the [finally] above). *)
              Lp_parallel.Cancel.check cancel;
              match stream_emit with
              | None -> compute t ~cancel request
              | Some em ->
                  with_stream t ~id em (fun () -> compute t ~cancel request)))
    in
    let deadline =
      if t.cfg.timeout_s > 0.0 then Unix.gettimeofday () +. t.cfg.timeout_s
      else infinity
    in
    match
      if deadline = infinity then Some (Pool.await fut)
      else Pool.await_until fut ~deadline
    with
    | Some (Ok payload) -> Ok payload
    | Some (Error (code, message)) -> Error (code, message, [])
    | None ->
        Lp_parallel.Cancel.fire cancel;
        Error
          ( "timeout",
            Printf.sprintf
              "no result within %.0f s (the request was cancelled and its \
               worker freed; completed work stayed in the cache)"
              t.cfg.timeout_s,
            [] )
    | exception e ->
        let code, message =
          error_of_exn ~cmd:(Protocol.cmd_name request) e
        in
        Error (code, message, [])
  end

let handle_request t ~emit ~on_shutdown ~id request =
  let timed_compute () =
    let t0 = Unix.gettimeofday () in
    let result = submit_and_wait t ~emit ~id request in
    let ms = 1e3 *. (Unix.gettimeofday () -. t0) in
    Metrics.record_latency_ms t.metrics ms;
    Mutex.protect t.m (fun () ->
        t.ewma_ms <-
          (if t.ewma_ms <= 0.0 then ms
           else (0.8 *. t.ewma_ms) +. (0.2 *. ms)));
    result
  in
  match request with
  | Protocol.List_apps ->
      counted t (fun c -> c.list <- c.list + 1);
      Ok (list_payload ())
  | Protocol.Stats ->
      counted t (fun c -> c.stats <- c.stats + 1);
      Ok (stats_payload t)
  | Protocol.Metrics ->
      counted t (fun c -> c.metrics <- c.metrics + 1);
      Ok (metrics_payload t)
  | Protocol.Shutdown ->
      counted t (fun c -> c.shutdown <- c.shutdown + 1);
      on_shutdown ();
      Ok (J.Assoc [ ("stopping", J.Bool true) ])
  | Protocol.Run _ ->
      counted t (fun c -> c.run <- c.run + 1);
      timed_compute ()
  | Protocol.Simulate _ ->
      counted t (fun c -> c.simulate <- c.simulate + 1);
      timed_compute ()
  | Protocol.Explore _ ->
      counted t (fun c -> c.explore <- c.explore + 1);
      timed_compute ()

let response_for t ~emit ~on_shutdown line =
  match J.of_string line with
  | exception J.Parse_error msg ->
      Error (J.Null, "parse", "malformed JSON: " ^ msg, [])
  | json -> (
      let id = Protocol.request_id json in
      match Protocol.parse_request json with
      | Error (code, message) -> Error (id, code, message, [])
      | Ok request -> (
          match handle_request t ~emit ~on_shutdown ~id request with
          | Ok payload -> Ok (id, Protocol.cmd_name request, payload)
          | Error (code, message, data) -> Error (id, code, message, data)))

let handle_line t ~emit ~on_shutdown line =
  if String.trim line <> "" then begin
    let response =
      (* Nothing a request does may kill the service: even a bug in
         dispatch itself degrades to an error envelope. *)
      match response_for t ~emit ~on_shutdown line with
      | r -> r
      | exception e ->
          Error
            (J.Null, "failed", "internal error: " ^ Printexc.to_string e, [])
    in
    let json =
      match response with
      | Ok (id, cmd, payload) ->
          Metrics.record_outcome t.metrics "ok";
          Protocol.ok_response ~id ~cmd payload
      | Error (id, code, message, data) ->
          counted t (fun c -> c.errors <- c.errors + 1);
          Metrics.record_outcome t.metrics code;
          Protocol.error_response_data ~id ~code ~message ~data
    in
    emit (J.to_string json)
  end

(* --- lifecycle ---------------------------------------------------- *)

let create cfg =
  if cfg.workers < 1 then invalid_arg "Engine.create: workers must be >= 1";
  Memo.set_persist_dir cfg.cache_dir;
  {
    cfg;
    pool = Pool.create ~domains:cfg.workers ();
    started_at = Unix.gettimeofday ();
    m = Mutex.create ();
    c =
      {
        run = 0;
        simulate = 0;
        explore = 0;
        list = 0;
        stats = 0;
        metrics = 0;
        shutdown = 0;
        errors = 0;
        pending = 0;
        connections = 0;
        active = 0;
      };
    stage_totals = Array.make (List.length Flow.all_stages) 0.0;
    ewma_ms = 0.0;
    metrics = Metrics.create ();
    set_trace_handler = trace_handler_setter ();
  }

let shutdown t = Pool.shutdown t.pool
