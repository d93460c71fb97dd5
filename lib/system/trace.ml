module Cache = Lp_cache.Cache
module Compiler = Lp_compiler.Compiler
module Iss = Lp_iss.Iss

type event = Ifetch of int | Dread of int | Dwrite of int

type t = { events : event Lp_graph.Vec.t }

let capture ?(fuel = 200_000_000) p =
  let trace = { events = Lp_graph.Vec.create () } in
  let prog, layout = Compiler.compile p in
  let push e =
    Lp_graph.Vec.push trace.events e;
    0 (* no stalls: the trace tool has no memory system *)
  in
  (* Per-word hooks: every fetch run is expanded back into one event per
     instruction and never skipped, and every data access is one event,
     in program order, so the captured stream is identical to
     per-instruction execution. Recording needs every access, so the
     capture cannot run on the caching hooks; the replay does. *)
  let hooks =
    Iss.word_hooks
      ~ifetch:(fun a -> push (Ifetch a))
      ~dread:(fun a -> push (Dread a))
      ~dwrite:(fun a -> push (Dwrite a))
      ~acall:(fun _ _ ->
        raise (Iss.Runtime_error "trace capture is software-only"))
      ()
  in
  let m = Iss.create ~fuel prog hooks in
  List.iter
    (fun (base, img) -> Iss.load_data m base img)
    (Compiler.initial_data p layout);
  Iss.run m;
  trace

let length t = Lp_graph.Vec.length t.events

let events t = Lp_graph.Vec.to_array t.events

(* Replay through the memory system [System.run] installs, so replay
   and live run cannot settle an access differently: one fetch of one
   word per [Ifetch], one port access per data event, and the I-cache
   reads counted at the end, one per fetched instruction. *)
let drive t ~fetches ~icache ~dcache =
  let ic = Cache.create icache and dc = Cache.create dcache in
  let h =
    System.memory_hooks ~icache:ic ~dcache:dc ~mem:(Lp_mem.Memory.create ())
      ~acall:(fun _ _ -> raise (Iss.Runtime_error "replay has no acall"))
      ()
  in
  let n = ref 0 in
  Lp_graph.Vec.iter
    (fun e ->
      match e with
      | Ifetch a ->
          if fetches then begin
            ignore (h.Iss.ifetch a 1);
            incr n
          end
      | Dread a -> h.Iss.dread a
      | Dwrite a -> h.Iss.dwrite a)
    t.events;
  ignore (h.Iss.settle !n);
  (Cache.stats ic, Cache.stats dc)

let replay t ~icache ~dcache = drive t ~fetches:true ~icache ~dcache

let sweep_dcache t configs =
  List.map
    (fun cfg ->
      (cfg, snd (drive t ~fetches:false ~icache:Cache.default_icache ~dcache:cfg)))
    configs

let miss_rate (s : Cache.stats) =
  let accesses = s.Cache.reads + s.Cache.writes in
  if accesses = 0 then 0.0
  else
    float_of_int (s.Cache.read_misses + s.Cache.write_misses)
    /. float_of_int accesses
