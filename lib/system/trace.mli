(** Address-trace capture and trace-driven cache simulation — the role
    the WARTS tool set (the paper's reference [17]) plays in its design
    flow: "analytical models for main memory energy consumption and
    caches are fed with the output of a cache profiler that itself is
    preceded by a trace tool".

    {!capture} runs a program once on the ISS with recording hooks and
    no memory system (zero stalls); {!replay} then drives any cache
    geometry from the stored trace without re-executing the program.
    For cache design-space exploration this is orders of magnitude
    cheaper than re-simulating, and — because our caches are functional
    state machines driven only by the address stream — {e exactly}
    equivalent: replaying the trace against the same geometry yields
    the same hit/miss/write-back statistics as the live run. *)

type event =
  | Ifetch of int  (** instruction fetch, byte address *)
  | Dread of int  (** data read, byte address *)
  | Dwrite of int  (** data write, byte address *)

type t

val capture : ?fuel:int -> Lp_ir.Ast.program -> t
(** Compile and execute the (software-only) program, recording every
    memory reference in order. *)

val length : t -> int

val events : t -> event array

val replay :
  t ->
  icache:Lp_cache.Cache.config ->
  dcache:Lp_cache.Cache.config ->
  Lp_cache.Cache.stats * Lp_cache.Cache.stats
(** Drive fresh caches with the stored reference stream through the
    memory system {!System.run} installs ({!System.memory_hooks});
    returns (i-cache stats, d-cache stats). *)

val sweep_dcache :
  t -> Lp_cache.Cache.config list -> (Lp_cache.Cache.config * Lp_cache.Cache.stats) list
(** Replay the data stream only, once per geometry. *)

val miss_rate : Lp_cache.Cache.stats -> float
(** (read + write misses) / accesses, 0 on an empty trace. *)
