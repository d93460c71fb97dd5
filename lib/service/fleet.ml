(* Fleet mode: a front router process plus N worker daemons, each a
   re-exec of the current binary holding its own {!Engine} (domain
   pool + in-memory memo). The router owns the client sockets, speaks
   the same line protocol as the single-process daemon, and forwards
   compute requests to shards chosen by consistent-hashing the
   program fingerprint preimage ({!Ring}), so repeat requests for the
   same prepared program land on the shard whose in-memory memo is
   already hot. All shards share the persistent disk memo tier and
   explore journal dirs — safe across processes because {!Lp_core.Store}
   publishes entries via atomic temp+rename.

   Plumbing per shard: requests are queued and flushed to the worker's
   stdin in one batched write by a writer thread; a supervisor thread
   reads the worker's stdout, routing response and streamed-event
   lines back to client connections by an id-rewriting table (client
   ids are arbitrary JSON; on the worker pipe every request carries a
   router-allocated integer id). A worker death (EOF/EPIPE) fails its
   in-flight requests with [shard_lost] and respawns the shard. *)

module J = Lp_json

let log = Logs.Src.create "lp.fleet" ~doc:"sharded partitioning fleet"

module Log = (val Logs.src_log log)

type config = {
  socket_path : string option;
  tcp_port : int option;
  shards : int;
  workers : int;  (** pool domains per shard *)
  queue_bound : int;  (** per-shard admission bound (router-enforced) *)
  timeout_s : float;
  cache_dir : string option;  (** shared by all shards *)
  handle_signals : bool;
}

let default_config =
  {
    socket_path = Some "lowpart.sock";
    tcp_port = None;
    shards = 2;
    workers = Lp_core.Flow.default_jobs;
    queue_bound = 64;
    timeout_s = 300.0;
    cache_dir = Some ".lowpart-cache";
    handle_signals = true;
  }

(* --- worker side --------------------------------------------------- *)

let worker_sentinel = "__lowpart-fleet-worker__"

(* One worker process: read request lines from stdin, answer on stdout
   (one thread per request so a long explore does not head-of-line
   block the pipe; ordering per request id is preserved because the
   engine emits a request's events before its response). Exits when
   the router closes our stdin, after draining in-flight work. *)
let worker_main ~shard ~workers ~queue_bound ~timeout_s ~cache_dir =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (* ^C at the terminal goes to the whole process group; the router
     coordinates shutdown by closing our stdin, so ignore the direct
     signal and die in order. *)
  (try Sys.set_signal Sys.sigint Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let engine =
    Engine.create
      {
        Engine.workers;
        queue_bound;
        timeout_s;
        cache_dir;
        shard = Some shard;
      }
  in
  let om = Mutex.create () in
  let emit line =
    Mutex.protect om (fun () ->
        print_string line;
        print_char '\n';
        flush stdout)
  in
  let im = Mutex.create () in
  let ic = Condition.create () in
  let inflight = ref 0 in
  let rec loop () =
    match input_line stdin with
    | line ->
        Mutex.protect im (fun () -> incr inflight);
        let (_ : Thread.t) =
          Thread.create
            (fun () ->
              Fun.protect
                ~finally:(fun () ->
                  Mutex.protect im (fun () ->
                      decr inflight;
                      Condition.signal ic))
                (fun () ->
                  Engine.handle_line engine ~emit ~on_shutdown:ignore line))
            ()
        in
        loop ()
    | exception End_of_file -> ()
  in
  loop ();
  Mutex.lock im;
  while !inflight > 0 do
    Condition.wait ic im
  done;
  Mutex.unlock im;
  Engine.shutdown engine;
  exit 0

(* Every binary that can start a fleet (the CLI, the bench harness,
   the tests) must call this first thing in main: workers are
   re-execs of [Sys.executable_name], recognized by the sentinel
   argv. Never returns in a worker process. *)
let maybe_exec_worker () =
  match Array.to_list Sys.argv with
  | [ _; s; shard; workers; queue; timeout; cache ]
    when String.equal s worker_sentinel ->
      let cache_dir = if String.equal cache "-" then None else Some cache in
      worker_main ~shard:(int_of_string shard)
        ~workers:(int_of_string workers) ~queue_bound:(int_of_string queue)
        ~timeout_s:(float_of_string timeout) ~cache_dir
  | _ -> ()

(* --- router side --------------------------------------------------- *)

(* A client connection. Writes (responses, streamed events — possibly
   from several supervisor threads at once) serialize on [wm]; a write
   error marks the connection closed and later sends become no-ops
   (the client is gone; the daemon is not). *)
type conn = {
  fd : Unix.file_descr;
  wm : Mutex.t;
  mutable open_ : bool;
}

let conn_send conn line =
  Mutex.protect conn.wm (fun () ->
      if conn.open_ then
        try Netio.write_all conn.fd (line ^ "\n") 0
        with Unix.Unix_error _ -> conn.open_ <- false)

type shard = {
  idx : int;
  sm : Mutex.t;  (** guards every mutable field and [queue] *)
  sc : Condition.t;  (** wakes the writer thread *)
  queue : string Queue.t;  (** request lines awaiting a batched flush *)
  mutable out_fd : Unix.file_descr option;  (** worker stdin *)
  mutable pid : int;
  mutable alive : bool;
  mutable in_flight : int;  (** dispatched, not yet answered *)
  mutable hwm : int;
  mutable dispatched : int;
  mutable lost : int;  (** requests failed with [shard_lost] *)
  mutable respawns : int;
  mutable batches : int;  (** pipe writes *)
  mutable batched_lines : int;  (** request lines across those writes *)
  mutable ewma_ms : float;  (** recent request latency on this shard *)
}

(* A [stats]/[metrics] broadcast in flight: one Part entry per shard;
   shards that are down (or die mid-broadcast) just leave their slot
   empty and the merge covers the survivors. *)
type fanout = {
  f_conn : conn;
  f_id : J.t;
  f_cmd : string;
  mutable remaining : int;
  parts : J.t option array;
}

type entry =
  | Single of { s_conn : conn; s_id : J.t; s_shard : shard; s_t0 : float }
  | Part of fanout * int

type t = {
  cfg : config;
  ring : Ring.t;
  shards : shard array;
  listeners : Unix.file_descr list;
  stop : bool Atomic.t;
  started_at : float;
  pm : Mutex.t;  (** guards [pending], [next_rid] and fanout counters *)
  pending : (int, entry) Hashtbl.t;
  mutable next_rid : int;
  m : Mutex.t;  (** guards [threads] and the connection counters *)
  mutable threads : Thread.t list;
  mutable connections : int;
  mutable active : int;
}

(* Lock order: [pm] and a shard's [sm] are never held together. *)

let alloc_rid t entry =
  Mutex.protect t.pm (fun () ->
      let rid = t.next_rid in
      t.next_rid <- rid + 1;
      Hashtbl.replace t.pending rid entry;
      rid)

(* Replace the id of a request object with the router-allocated one
   (prepended; the worker echoes it back verbatim). *)
let with_id json rid =
  match json with
  | J.Assoc fields ->
      J.Assoc (("id", J.Int rid) :: List.remove_assoc "id" fields)
  | j -> j

(* Put the client's own id back into a worker line, in place (worker
   envelopes lead with "id", so the response bytes keep their shape). *)
let restore_id json id =
  match json with
  | J.Assoc fields ->
      J.Assoc (List.map (fun (k, v) -> if k = "id" then (k, id) else (k, v)) fields)
  | j -> j

let enqueue sh line =
  Mutex.protect sh.sm (fun () -> Queue.push line sh.queue);
  Condition.signal sh.sc

(* The routing key is the program-fingerprint preimage: the app spec
   plus the IR-preparation options that change the program the flow
   actually sees. Two requests with equal keys memoize against the
   same candidates, so landing them on the same shard keeps its
   in-memory memo hot; scheduler/f/n_max variations deliberately stay
   off the key (same program, different search — same shard). *)
let routing_key (req : Protocol.request) =
  match req with
  | Protocol.Run { app; options; _ }
  | Protocol.Simulate { app; options }
  | Protocol.Explore { app; options; _ } ->
      Printf.sprintf "%s|optimize=%b|unroll=%d" app
        (Option.value options.Protocol.optimize ~default:false)
        (Option.value options.Protocol.unroll ~default:1)
  | Protocol.List_apps | Protocol.Stats | Protocol.Metrics
  | Protocol.Shutdown -> ""

let retry_hint ~ewma_ms ~in_flight ~workers =
  let base = if ewma_ms > 0.0 then ewma_ms else 100.0 in
  max 1
    (int_of_float
       (Float.ceil (base *. float_of_int (max 1 in_flight)
                    /. float_of_int (max 1 workers))))

(* --- merged stats / metrics ---------------------------------------- *)

let member_or name j ~default =
  match J.member name j with Some v -> v | None -> default

let conns_json t =
  Mutex.protect t.m (fun () ->
      J.Assoc
        [ ("accepted", J.Int t.connections); ("active", J.Int t.active) ])

(* The fleet [stats] envelope keeps the single daemon's exact key set
   and order: counters sum across shards, [connections] is the
   router's (clients connect to us, not to workers), [disk_entries]
   folds with max because every shard reports the same shared disk
   tier. *)
let merged_stats t parts_arr =
  let parts = List.filter_map Fun.id (Array.to_list parts_arr) in
  let objs name = List.filter_map (J.member name) parts in
  let sum_int name =
    List.fold_left
      (fun acc p ->
        acc + Option.value (J.int_field p name) ~default:0)
      0 parts
  in
  J.Assoc
    [
      ("uptime_s", J.Float (Unix.gettimeofday () -. t.started_at));
      ("workers", J.Int (sum_int "workers"));
      ("queue_bound", J.Int (sum_int "queue_bound"));
      ("requests", Metrics.sum_objects (objs "requests"));
      ("connections", conns_json t);
      ( "memo",
        Metrics.sum_objects ~max_keys:[ "disk_entries" ] (objs "memo") );
      ( "cache_dir",
        match parts with
        | p :: _ -> member_or "cache_dir" p ~default:J.Null
        | [] -> J.Null );
      ("stages", Metrics.sum_objects (objs "stages"));
    ]

let patch_hit_rate memo =
  match memo with
  | J.Assoc fields ->
      let num name =
        match List.assoc_opt name fields with
        | Some (J.Int n) -> float_of_int n
        | Some (J.Float f) -> f
        | _ -> 0.0
      in
      let hits = num "hits" and misses = num "misses" in
      let rate =
        if hits +. misses <= 0.0 then 0.0 else hits /. (hits +. misses)
      in
      J.Assoc
        (List.map
           (fun (k, v) -> if k = "hit_rate" then (k, J.Float rate) else (k, v))
           fields)
  | j -> j

let router_json t sh =
  Mutex.protect sh.sm (fun () ->
      J.Assoc
        [
          ("shard", J.Int sh.idx);
          ("pid", J.Int sh.pid);
          ("alive", J.Bool sh.alive);
          ("in_flight", J.Int sh.in_flight);
          ("high_water", J.Int sh.hwm);
          ("queue_bound", J.Int t.cfg.queue_bound);
          ("dispatched", J.Int sh.dispatched);
          ("shard_lost", J.Int sh.lost);
          ("respawns", J.Int sh.respawns);
          ("batches", J.Int sh.batches);
          ("batched_lines", J.Int sh.batched_lines);
          ("ewma_ms", J.Float sh.ewma_ms);
        ])

(* The fleet [metrics] envelope: router-side per-shard counters, the
   raw per-shard worker payloads, and merged totals (histogram counts
   sum exactly; percentiles recomputed from the union). *)
let merged_metrics t parts_arr =
  let parts = List.filter_map Fun.id (Array.to_list parts_arr) in
  let objs name = List.filter_map (J.member name) parts in
  J.Assoc
    [
      ("schema", J.String "lowpart-metrics/1");
      ( "fleet",
        J.Assoc
          [
            ("shards", J.Int (Array.length t.shards));
            ("uptime_s", J.Float (Unix.gettimeofday () -. t.started_at));
            ("connections", conns_json t);
            ( "router",
              J.List (Array.to_list (Array.map (router_json t) t.shards)) );
          ] );
      ("shards", J.List parts);
      ( "totals",
        J.Assoc
          [
            ("outcomes", Metrics.sum_objects (objs "outcomes"));
            ("latency_ms", Metrics.merge_latency (objs "latency_ms"));
            ("stage_seconds", Metrics.sum_objects (objs "stage_seconds"));
            ( "memo",
              patch_hit_rate
                (Metrics.sum_objects ~max_keys:[ "disk_entries" ]
                   (objs "memo")) );
          ] );
    ]

let fanout_finish t f =
  let payload =
    match f.f_cmd with
    | "stats" -> merged_stats t f.parts
    | _ -> merged_metrics t f.parts
  in
  conn_send f.f_conn
    (J.to_string (Protocol.ok_response ~id:f.f_id ~cmd:f.f_cmd payload))

let part_done t f =
  let finished =
    Mutex.protect t.pm (fun () ->
        f.remaining <- f.remaining - 1;
        f.remaining = 0)
  in
  if finished then fanout_finish t f

(* --- worker lines back to clients ---------------------------------- *)

let on_worker_line t sh line =
  match J.of_string line with
  | exception J.Parse_error _ ->
      Log.warn (fun m -> m "shard %d: unparseable worker line" sh.idx)
  | json -> (
      match J.member "id" json with
      | Some (J.Int rid) ->
          if Protocol.is_event json then (
            (* Streamed stage event: forward (id restored) without
               retiring the pending entry — the response follows. *)
            match
              Mutex.protect t.pm (fun () -> Hashtbl.find_opt t.pending rid)
            with
            | Some (Single s) ->
                conn_send s.s_conn (J.to_string (restore_id json s.s_id))
            | Some (Part _) | None -> ())
          else (
            match
              Mutex.protect t.pm (fun () ->
                  match Hashtbl.find_opt t.pending rid with
                  | Some e ->
                      Hashtbl.remove t.pending rid;
                      Some e
                  | None -> None)
            with
            | None -> ()
            | Some (Single s) ->
                let dt_ms = 1e3 *. (Unix.gettimeofday () -. s.s_t0) in
                Mutex.protect sh.sm (fun () ->
                    sh.in_flight <- sh.in_flight - 1;
                    sh.ewma_ms <-
                      (if sh.ewma_ms <= 0.0 then dt_ms
                       else (0.8 *. sh.ewma_ms) +. (0.2 *. dt_ms)));
                conn_send s.s_conn (J.to_string (restore_id json s.s_id))
            | Some (Part (f, slot)) ->
                (match Protocol.parse_response json with
                | Ok { Protocol.payload = Ok payload; _ } ->
                    f.parts.(slot) <- Some payload
                | Ok _ | Error _ -> ());
                part_done t f)
      | _ -> ())

(* --- shard supervision --------------------------------------------- *)

let spawn_worker t sh =
  (* cloexec on our ends; create_process's dup2 clears it on the
     child's stdin/stdout copies. *)
  let r_in, w_in = Unix.pipe ~cloexec:true () in
  let r_out, w_out = Unix.pipe ~cloexec:true () in
  let cache = match t.cfg.cache_dir with Some d -> d | None -> "-" in
  let argv =
    [|
      Sys.executable_name;
      worker_sentinel;
      string_of_int sh.idx;
      string_of_int t.cfg.workers;
      string_of_int t.cfg.queue_bound;
      string_of_float t.cfg.timeout_s;
      cache;
    |]
  in
  let pid =
    Unix.create_process Sys.executable_name argv r_in w_out Unix.stderr
  in
  Unix.close r_in;
  Unix.close w_out;
  (pid, w_in, r_out)

(* A dead worker fails everything it owed: queued-but-unflushed lines,
   dispatched singles (distinct [shard_lost] error so clients know a
   retry is reasonable — completed work persists in the shared disk
   cache), and its slots in any broadcast fan-out. *)
let fail_in_flight t sh =
  let mine =
    Mutex.protect t.pm (fun () ->
        let acc = ref [] in
        Hashtbl.iter
          (fun rid e ->
            let is_mine =
              match e with
              | Single s -> s.s_shard == sh
              | Part (_, slot) -> slot = sh.idx
            in
            if is_mine then acc := (rid, e) :: !acc)
          t.pending;
        List.iter (fun (rid, _) -> Hashtbl.remove t.pending rid) !acc;
        !acc)
  in
  let singles =
    List.length
      (List.filter (function _, Single _ -> true | _ -> false) mine)
  in
  Mutex.protect sh.sm (fun () ->
      Queue.clear sh.queue;
      sh.in_flight <- 0;
      sh.lost <- sh.lost + singles);
  List.iter
    (fun (_, e) ->
      match e with
      | Single s ->
          conn_send s.s_conn
            (J.to_string
               (Protocol.error_response_data ~id:s.s_id ~code:"shard_lost"
                  ~message:
                    (Printf.sprintf
                       "shard %d worker died mid-request (the router is \
                        respawning it; retrying is safe — completed work \
                        persists in the shared cache)"
                       sh.idx)
                  ~data:[ ("shard", J.Int sh.idx) ]))
      | Part (f, _) -> part_done t f)
    mine

(* Supervisor thread: spawn the worker, pump its stdout until EOF,
   then clean up, fail in-flight work, and respawn (unless the fleet
   is stopping). *)
let rec supervise t sh =
  if not (Atomic.get t.stop) then begin
    let pid, w_in, r_out = spawn_worker t sh in
    Log.info (fun m -> m "shard %d: worker pid %d" sh.idx pid);
    Mutex.protect sh.sm (fun () ->
        sh.pid <- pid;
        sh.out_fd <- Some w_in;
        sh.alive <- true);
    Condition.broadcast sh.sc;
    (* If shutdown raced the spawn, the teardown sweep may already have
       run and missed this worker's stdin — close it ourselves so the
       worker exits and the EOF below arrives. *)
    if Atomic.get t.stop then
      Mutex.protect sh.sm (fun () ->
          match sh.out_fd with
          | Some fd ->
              sh.out_fd <- None;
              (try Unix.close fd with Unix.Unix_error _ -> ())
          | None -> ());
    let ic = Unix.in_channel_of_descr r_out in
    (try
       while true do
         on_worker_line t sh (input_line ic)
       done
     with End_of_file | Sys_error _ -> ());
    Mutex.protect sh.sm (fun () ->
        sh.alive <- false;
        match sh.out_fd with
        | Some fd ->
            sh.out_fd <- None;
            (try Unix.close fd with Unix.Unix_error _ -> ())
        | None -> ());
    (try close_in ic with Sys_error _ -> ());
    (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
    fail_in_flight t sh;
    if not (Atomic.get t.stop) then begin
      Log.warn (fun m -> m "shard %d: worker died, respawning" sh.idx);
      Mutex.protect sh.sm (fun () -> sh.respawns <- sh.respawns + 1);
      supervise t sh
    end
  end

(* Writer thread: flush the whole per-shard queue in one pipe write
   (request batching — many small lines become one syscall under
   load). Writing under [sm] is deliberate: it excludes the
   supervisor's close, so the fd cannot be recycled under us; it
   cannot block indefinitely because the worker drains its stdin
   eagerly (a thread per line) and the router admits at most
   [queue_bound] small request lines per shard. *)
let writer t sh =
  let buf = Buffer.create 4096 in
  let rec loop () =
    Mutex.lock sh.sm;
    while Queue.is_empty sh.queue && not (Atomic.get t.stop) do
      Condition.wait sh.sc sh.sm
    done;
    if Queue.is_empty sh.queue then Mutex.unlock sh.sm (* stopping *)
    else begin
      (match sh.out_fd with
      | None ->
          (* Worker down: the queued lines' pending entries are being
             failed by [fail_in_flight]; drop the bytes. *)
          Queue.clear sh.queue
      | Some fd ->
          Buffer.clear buf;
          let n = ref 0 in
          while not (Queue.is_empty sh.queue) do
            Buffer.add_string buf (Queue.pop sh.queue);
            Buffer.add_char buf '\n';
            incr n
          done;
          sh.batches <- sh.batches + 1;
          sh.batched_lines <- sh.batched_lines + !n;
          (try Netio.write_all fd (Buffer.contents buf) 0
           with Unix.Unix_error _ -> ()));
      Mutex.unlock sh.sm;
      loop ()
    end
  in
  loop ()

(* --- request dispatch ---------------------------------------------- *)

let send_error conn ~id ~code ~message ~data =
  conn_send conn
    (J.to_string (Protocol.error_response_data ~id ~code ~message ~data))

let dispatch_compute t conn ~id req json =
  let sh = t.shards.(Ring.shard_of t.ring (routing_key req)) in
  let verdict =
    Mutex.protect sh.sm (fun () ->
        if not sh.alive then `Lost
        else if sh.in_flight >= t.cfg.queue_bound then
          `Busy (sh.ewma_ms, sh.in_flight)
        else begin
          sh.in_flight <- sh.in_flight + 1;
          if sh.in_flight > sh.hwm then sh.hwm <- sh.in_flight;
          sh.dispatched <- sh.dispatched + 1;
          `Go
        end)
  in
  match verdict with
  | `Lost ->
      send_error conn ~id ~code:"shard_lost"
        ~message:
          (Printf.sprintf "shard %d is restarting; retry shortly" sh.idx)
        ~data:[ ("shard", J.Int sh.idx) ]
  | `Busy (ewma_ms, in_flight) ->
      (* Router-level backpressure: the hint scales the shard's recent
         latency by its queue depth over its pool width. *)
      send_error conn ~id ~code:"overloaded"
        ~message:
          (Printf.sprintf "shard %d queue is full (%d in flight)" sh.idx
             t.cfg.queue_bound)
        ~data:
          [
            ( "retry_after_ms",
              J.Int (retry_hint ~ewma_ms ~in_flight ~workers:t.cfg.workers) );
            ("shard", J.Int sh.idx);
          ]
  | `Go ->
      let rid =
        alloc_rid t
          (Single
             { s_conn = conn; s_id = id; s_shard = sh;
               s_t0 = Unix.gettimeofday () })
      in
      enqueue sh (J.to_string (with_id json rid))

let broadcast t conn ~id req =
  let n = Array.length t.shards in
  let f =
    {
      f_conn = conn;
      f_id = id;
      f_cmd = Protocol.cmd_name req;
      remaining = n;
      parts = Array.make n None;
    }
  in
  Array.iter
    (fun sh ->
      let rid = alloc_rid t (Part (f, sh.idx)) in
      if Mutex.protect sh.sm (fun () -> sh.alive) then
        enqueue sh
          (J.to_string (Protocol.request_to_json ~id:(J.Int rid) req))
      else begin
        (* Down shard: its slot stays empty; merge the survivors. *)
        Mutex.protect t.pm (fun () -> Hashtbl.remove t.pending rid);
        part_done t f
      end)
    t.shards

let handle_line t conn line =
  if String.trim line <> "" then
    match J.of_string line with
    | exception J.Parse_error msg ->
        send_error conn ~id:J.Null ~code:"parse"
          ~message:("malformed JSON: " ^ msg) ~data:[]
    | json -> (
        let id = Protocol.request_id json in
        match Protocol.parse_request json with
        | Error (code, message) -> send_error conn ~id ~code ~message ~data:[]
        | Ok Protocol.List_apps ->
            conn_send conn
              (J.to_string
                 (Protocol.ok_response ~id ~cmd:"list" (Engine.list_payload ())))
        | Ok Protocol.Shutdown ->
            conn_send conn
              (J.to_string
                 (Protocol.ok_response ~id ~cmd:"shutdown"
                    (J.Assoc [ ("stopping", J.Bool true) ])));
            Atomic.set t.stop true
        | Ok ((Protocol.Stats | Protocol.Metrics) as req) ->
            broadcast t conn ~id req
        | Ok ((Protocol.Run _ | Protocol.Simulate _ | Protocol.Explore _) as
              req) ->
            dispatch_compute t conn ~id req json)

(* Per-connection reader thread, as in {!Server} — but dispatch only
   enqueues; responses come back through the supervisor threads, so a
   slow request never blocks this connection's other requests. *)
let handle_conn t conn =
  let buf = Buffer.create 1024 in
  let bytes = Bytes.create 4096 in
  let rec drain_lines () =
    let s = Buffer.contents buf in
    match String.index_opt s '\n' with
    | None -> ()
    | Some i ->
        Buffer.clear buf;
        Buffer.add_substring buf s (i + 1) (String.length s - i - 1);
        handle_line t conn (String.sub s 0 i);
        drain_lines ()
  in
  let rec loop () =
    if not (Atomic.get t.stop) then begin
      match Unix.select [ conn.fd ] [] [] 0.2 with
      | [], _, _ -> loop ()
      | _ -> (
          match Unix.read conn.fd bytes 0 (Bytes.length bytes) with
          | 0 -> ()
          | n ->
              Buffer.add_subbytes buf bytes 0 n;
              drain_lines ();
              loop ())
    end
  in
  (try loop () with
  | Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | Unix.Unix_error _ -> Log.debug (fun m -> m "connection dropped"));
  Mutex.protect conn.wm (fun () -> conn.open_ <- false);
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  Mutex.protect t.m (fun () -> t.active <- t.active - 1)

(* --- lifecycle ----------------------------------------------------- *)

let mk_shard idx =
  {
    idx;
    sm = Mutex.create ();
    sc = Condition.create ();
    queue = Queue.create ();
    out_fd = None;
    pid = 0;
    alive = false;
    in_flight = 0;
    hwm = 0;
    dispatched = 0;
    lost = 0;
    respawns = 0;
    batches = 0;
    batched_lines = 0;
    ewma_ms = 0.0;
  }

let start (cfg : config) =
  if cfg.shards < 1 then invalid_arg "Fleet.start: shards must be >= 1";
  if cfg.workers < 1 then invalid_arg "Fleet.start: workers must be >= 1";
  if cfg.socket_path = None && cfg.tcp_port = None then
    invalid_arg "Fleet.start: no endpoint (need a socket path or TCP port)";
  let listeners =
    List.filter_map Fun.id
      [
        Option.map Netio.listen_unix cfg.socket_path;
        Option.map Netio.listen_tcp cfg.tcp_port;
      ]
  in
  let t =
    {
      cfg;
      ring = Ring.create ~shards:cfg.shards ();
      shards = Array.init cfg.shards mk_shard;
      listeners;
      stop = Atomic.make false;
      started_at = Unix.gettimeofday ();
      pm = Mutex.create ();
      pending = Hashtbl.create 64;
      next_rid = 1;
      m = Mutex.create ();
      threads = [];
      connections = 0;
      active = 0;
    }
  in
  Log.info (fun m ->
      m "fleet: %d shards x %d workers, %s" cfg.shards cfg.workers
        (match cfg.cache_dir with Some d -> d | None -> "(memory only)"));
  Array.iter
    (fun sh ->
      let sup = Thread.create (fun () -> supervise t sh) () in
      let wr = Thread.create (fun () -> writer t sh) () in
      Mutex.protect t.m (fun () -> t.threads <- sup :: wr :: t.threads))
    t.shards;
  t

let stop t = Atomic.set t.stop true

let run t =
  if t.cfg.handle_signals then begin
    let on_signal _ = Atomic.set t.stop true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
  end;
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
                  Mutex.protect t.m (fun () ->
                      t.connections <- t.connections + 1;
                      t.active <- t.active + 1);
                  let conn = { fd; wm = Mutex.create (); open_ = true } in
                  let th = Thread.create (fun () -> handle_conn t conn) () in
                  Mutex.protect t.m (fun () -> t.threads <- th :: t.threads)
              | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _)
                ->
                  ())
            readable
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      accept_loop ()
    end
  in
  accept_loop ();
  Log.info (fun m -> m "fleet: shutting down");
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    t.listeners;
  Option.iter Netio.unlink_quiet t.cfg.socket_path;
  (* Wake the writers (they exit once their queues drain), then close
     each worker's stdin: workers finish in-flight requests and exit,
     their supervisors reap them and return without respawning. *)
  Array.iter (fun sh -> Condition.broadcast sh.sc) t.shards;
  Array.iter
    (fun sh ->
      Mutex.protect sh.sm (fun () ->
          match sh.out_fd with
          | Some fd ->
              sh.out_fd <- None;
              (try Unix.close fd with Unix.Unix_error _ -> ())
          | None -> ()))
    t.shards;
  let threads = Mutex.protect t.m (fun () -> t.threads) in
  List.iter Thread.join threads;
  Log.info (fun m -> m "fleet: down")

let serve cfg = run (start cfg)
