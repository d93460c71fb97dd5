type phase = Begin | End | Counter

type event = {
  ph : phase;
  name : string;
  ts_s : float;
  dom : int;
  value : int;
}

(* Minimal JSON string escaping — enough for arbitrary span names
   without pulling a JSON dependency into this leaf library. Multi-byte
   UTF-8 passes through untouched (JSON allows raw non-ASCII). *)
let escape_into buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let event_json e =
  let buf = Buffer.create 96 in
  let ph = match e.ph with Begin -> "B" | End -> "E" | Counter -> "C" in
  Buffer.add_string buf {|{"ph":"|};
  Buffer.add_string buf ph;
  Buffer.add_string buf {|","name":|};
  escape_into buf e.name;
  Buffer.add_string buf (Printf.sprintf {|,"dom":%d,"ts":%.6f|} e.dom e.ts_s);
  (match e.ph with
  | Counter -> Buffer.add_string buf (Printf.sprintf {|,"value":%d|} e.value)
  | Begin | End -> ());
  Buffer.add_char buf '}';
  Buffer.contents buf

type sink = { emit : event -> unit; close : unit -> unit }

let null_sink () = { emit = ignore; close = ignore }

(* Channel-backed sinks share one writer: a mutex serialises lines so
   concurrent domains never interleave within a line. *)
let channel_sink ?(close_out_at_end = false) oc =
  let m = Mutex.create () in
  let closed = ref false in
  let emit e =
    Mutex.lock m;
    if not !closed then begin
      output_string oc (event_json e);
      output_char oc '\n'
    end;
    Mutex.unlock m
  in
  let close () =
    Mutex.lock m;
    if not !closed then begin
      closed := true;
      if close_out_at_end then close_out oc else flush oc
    end;
    Mutex.unlock m
  in
  { emit; close }

let stderr_sink () = channel_sink stderr

let file_sink path =
  channel_sink ~close_out_at_end:true (open_out_bin path)

let memory_sink () =
  let m = Mutex.create () in
  let acc = ref [] in
  let emit e =
    Mutex.lock m;
    acc := e :: !acc;
    Mutex.unlock m
  in
  let events () =
    Mutex.lock m;
    let l = List.rev !acc in
    Mutex.unlock m;
    l
  in
  ({ emit; close = ignore }, events)

(* A routed sink demultiplexes by emitting domain: each domain may
   register a private handler, and events from domains with no handler
   are dropped. This is what lets one process-wide sink serve many
   concurrent consumers — the service engine registers a handler on the
   domain computing a streamed request, re-emits its stage spans to the
   client, and unregisters, without ever seeing another request's
   events. The handler table is tiny (one entry per in-flight streamed
   request), so the per-event cost is one mutex'd hash lookup. *)
let routed_sink () =
  let m = Mutex.create () in
  let handlers : (int, event -> unit) Hashtbl.t = Hashtbl.create 8 in
  let emit e =
    let h = Mutex.protect m (fun () -> Hashtbl.find_opt handlers e.dom) in
    (* Call outside the lock: handlers do I/O. *)
    match h with None -> () | Some f -> f e
  in
  let set_handler h =
    let dom = (Domain.self () :> int) in
    Mutex.protect m (fun () ->
        match h with
        | None -> Hashtbl.remove handlers dom
        | Some f -> Hashtbl.replace handlers dom f)
  in
  ({ emit; close = ignore }, set_handler)

(* The installed sink. An [Atomic] keeps the disabled fast path to a
   single load; sinks serialise internally so no further locking is
   needed on emission. *)
let current : sink option Atomic.t = Atomic.make None

let set_sink s = Atomic.set current s
let enabled () = Atomic.get current <> None

let close () =
  match Atomic.exchange current None with
  | None -> ()
  | Some s -> s.close ()

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let dom_id () = (Domain.self () :> int)

let counter name value =
  match Atomic.get current with
  | None -> ()
  | Some s ->
      s.emit { ph = Counter; name; ts_s = now_s (); dom = dom_id (); value }

let with_span name f =
  match Atomic.get current with
  | None -> f ()
  | Some s ->
      let dom = dom_id () in
      s.emit { ph = Begin; name; ts_s = now_s (); dom; value = 0 };
      Fun.protect
        ~finally:(fun () ->
          s.emit { ph = End; name; ts_s = now_s (); dom; value = 0 })
        f

let timed_span name f =
  match Atomic.get current with
  | None ->
      let t0 = now_s () in
      let v = f () in
      let t1 = now_s () in
      (v, t1 -. t0)
  | Some s ->
      let dom = dom_id () in
      let t0 = now_s () in
      s.emit { ph = Begin; name; ts_s = t0; dom; value = 0 };
      let finish () =
        let t1 = now_s () in
        s.emit { ph = End; name; ts_s = t1; dom; value = 0 };
        t1
      in
      (match f () with
      | v ->
          let t1 = finish () in
          (v, t1 -. t0)
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          ignore (finish ());
          Printexc.raise_with_backtrace e bt)
