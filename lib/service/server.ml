(* The single-process daemon: socket frontend over {!Engine}. All
   request semantics (dispatch, admission, deadlines, streamed stage
   events, stats/metrics payloads) live in the engine; this module
   only owns listeners, per-connection reader threads and the
   shutdown flag. *)

let log = Logs.Src.create "lp.serve" ~doc:"partitioning service daemon"

module Log = (val Logs.src_log log)

type config = {
  socket_path : string option;
  tcp_port : int option;
  workers : int;
  queue_bound : int;
  timeout_s : float;
  cache_dir : string option;
  handle_signals : bool;
}

let default_config =
  {
    socket_path = Some "lowpart.sock";
    tcp_port = None;
    workers = Lp_core.Flow.default_jobs;
    queue_bound = 64;
    timeout_s = 300.0;
    cache_dir = Some ".lowpart-cache";
    handle_signals = true;
  }

type t = {
  cfg : config;
  engine : Engine.t;
  listeners : Unix.file_descr list;
  stop : bool Atomic.t;
  m : Mutex.t;  (** guards [live] *)
  idle : Condition.t;  (** signalled when [live] drops to 0 *)
  mutable live : int;  (** connection threads still running *)
}

(* A request line longer than this with no newline yet is answered
   with one [bad_request] and its connection is closed, so a client
   that never sends a newline cannot grow the daemon without limit. *)
let max_line_bytes = 1 lsl 20

(* Per-connection reader thread: accumulate bytes, dispatch complete
   lines in order. Only the newly read bytes are scanned for a
   newline. The 0.2 s select timeout doubles as the shutdown poll, so
   a silent client cannot pin the teardown. Response and
   streamed-event lines share the socket under one write mutex — the
   engine emits events from pool domains while this thread waits on
   the response. *)
let handle_conn t fd =
  let wm = Mutex.create () in
  let emit line =
    Mutex.protect wm (fun () -> Netio.write_all fd (line ^ "\n") 0)
  in
  let handle_line line =
    Engine.handle_line t.engine ~emit
      ~on_shutdown:(fun () -> Atomic.set t.stop true)
      line
  in
  let buf = Buffer.create 1024 in
  let bytes = Bytes.create 4096 in
  (* Hand every line completed by [bytes.[pos, stop)] to the engine
     and keep the rest; false once the unfinished line is too long. *)
  let rec feed pos stop =
    match Bytes.index_from_opt bytes pos '\n' with
    | Some i when i < stop ->
        Buffer.add_subbytes buf bytes pos (i - pos);
        let line = Buffer.contents buf in
        Buffer.clear buf;
        handle_line line;
        feed (i + 1) stop
    | _ ->
        Buffer.add_subbytes buf bytes pos (stop - pos);
        Buffer.length buf <= max_line_bytes
  in
  let rec loop () =
    if not (Atomic.get t.stop) then begin
      match Unix.select [ fd ] [] [] 0.2 with
      | [], _, _ -> loop ()
      | _ -> (
          match Unix.read fd bytes 0 (Bytes.length bytes) with
          | 0 -> ()
          | n ->
              if feed 0 n then loop ()
              else
                emit
                  (Lp_json.to_string
                     (Protocol.error_response ~id:Lp_json.Null
                        ~code:"bad_request"
                        ~message:
                          (Printf.sprintf
                             "request line exceeds %d bytes without a newline"
                             max_line_bytes))))
    end
  in
  (try loop () with
  | Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | Unix.Unix_error _ ->
      (* Client went away (possibly mid-run): drop the connection,
         keep the daemon. *)
      Log.debug (fun m -> m "connection dropped"));
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Engine.conn_closed t.engine

(* --- lifecycle ---------------------------------------------------- *)

let start cfg =
  if cfg.workers < 1 then invalid_arg "Server.start: workers must be >= 1";
  if cfg.socket_path = None && cfg.tcp_port = None then
    invalid_arg "Server.start: no endpoint (need a socket path or TCP port)";
  let engine =
    Engine.create
      {
        Engine.workers = cfg.workers;
        queue_bound = cfg.queue_bound;
        timeout_s = cfg.timeout_s;
        cache_dir = cfg.cache_dir;
        shard = None;
      }
  in
  let listeners =
    List.filter_map Fun.id
      [
        Option.map Netio.listen_unix cfg.socket_path;
        Option.map Netio.listen_tcp cfg.tcp_port;
      ]
  in
  Log.info (fun m ->
      m "listening (%s%s), %d workers, cache %s"
        (match cfg.socket_path with Some p -> "unix:" ^ p | None -> "")
        (match cfg.tcp_port with
        | Some p -> Printf.sprintf " tcp:127.0.0.1:%d" p
        | None -> "")
        cfg.workers
        (match cfg.cache_dir with Some d -> d | None -> "(memory only)"));
  {
    cfg;
    engine;
    listeners;
    stop = Atomic.make false;
    m = Mutex.create ();
    idle = Condition.create ();
    live = 0;
  }

let stop t = Atomic.set t.stop true

(* A connection thread counts itself out when it ends, so teardown
   waits for exactly the connections still open. *)
let conn_thread t fd =
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect t.m (fun () ->
          t.live <- t.live - 1;
          if t.live = 0 then Condition.broadcast t.idle))
    (fun () -> handle_conn t fd)

let run t =
  if t.cfg.handle_signals then begin
    let on_signal _ = Atomic.set t.stop true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
  end;
  (* A client closing mid-write must surface as EPIPE, not kill us. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let rec accept_loop () =
    if not (Atomic.get t.stop) then begin
      (match Unix.select t.listeners [] [] 0.2 with
      | readable, _, _ ->
          List.iter
            (fun lfd ->
              match Unix.accept ~cloexec:true lfd with
              | fd, _ ->
                  Engine.conn_opened t.engine;
                  Mutex.protect t.m (fun () -> t.live <- t.live + 1);
                  ignore (Thread.create (conn_thread t) fd)
              | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) ->
                  ())
            readable
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      accept_loop ()
    end
  in
  accept_loop ();
  Log.info (fun m -> m "shutting down");
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    t.listeners;
  Option.iter Netio.unlink_quiet t.cfg.socket_path;
  Mutex.protect t.m (fun () ->
      while t.live > 0 do
        Condition.wait t.idle t.m
      done);
  Engine.shutdown t.engine

let serve cfg = run (start cfg)
