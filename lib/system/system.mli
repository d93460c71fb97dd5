(** Whole-system co-simulation: uP core + instruction cache + data
    cache + main memory + shared bus + optional ASIC cores.

    This produces the per-core energy and cycle numbers of the paper's
    Table 1. Every word that moves is charged where it physically moves:
    instruction fetches in the i-cache, data accesses in the d-cache,
    line fills/write-backs and uncached mailbox words in the memory and
    bus accounts, instruction execution in the uP core, and ASIC-cluster
    execution in the ASIC account.

    Architecture (paper Fig. 2a): uP and ASIC communicate through the
    shared memory. Scalars are handed over through a per-cluster
    {e mailbox} region which is uncached (so handovers really cross the
    bus); before an ASIC core runs, the d-cache is flushed so the ASIC
    sees, and leaves behind, a coherent main memory.

    Arrays private to the ASIC (never touched by software clusters) live
    in ASIC-local buffers: their element traffic is covered by the
    memory-port power of the ASIC datapath and does not hit the shared
    memory. Shared arrays are streamed over the bus at their dynamic
    access counts. *)

type config = {
  icache : Lp_cache.Cache.config;
  dcache : Lp_cache.Cache.config;
  fuel : int;
  buffer_capacity_words : int;
      (** ASIC-local SRAM capacity: a shared array no larger than this
          is burst-copied in/out once per invocation; a larger one is
          streamed word by word (default 2048 words = 8 KiB) *)
  asic_word_cycles : int;
      (** cost of one ASIC single-word shared-memory transaction:
          bus arbitration + non-page-mode DRAM access + coherence
          snoop — unlike the uP's page-mode line bursts (default 12) *)
  peephole : bool;
      (** run the assembly peephole optimiser (default off: software
          code quality is an experimental axis of its own — see the
          bench harness's ablations) *)
  platform : Lp_tech.Platform.t;
      (** the uP platform: core supply/clock, memory latency/energy and
          the Vdd^2 energy scale of core + caches (default
          {!Lp_tech.Platform.sparclite}, under which the simulation is
          bit-identical to the pre-platform code). The [icache]/[dcache]
          fields above stay the authority on cache geometry so explicit
          cache overrides can refine a platform; use
          {!config_of_platform} to sync them from a platform. *)
}

val default_config : config

val config_of_platform : ?base:config -> Lp_tech.Platform.t -> config
(** [config_of_platform ?base p] is [base] (default {!default_config})
    running on [p]: platform field set and cache geometries copied from
    the platform. *)

(** One ASIC-mapped cluster, as the partitioner hands it over. *)
type asic_task = {
  acall_id : int;
  stmts : Lp_ir.Ast.stmt list;  (** cluster body (straight from the IR) *)
  use_scalars : string list;  (** mailbox in *)
  gen_scalars : string list;  (** mailbox out *)
  private_arrays : string list;  (** held in ASIC-local buffers *)
  buffer_in_arrays : (string * int) list;
      (** shared arrays (name, words) burst-copied into the local
          buffer at invocation start *)
  buffer_out_arrays : (string * int) list;
      (** shared arrays burst-copied back at completion *)
  stream_arrays : string list;
      (** shared arrays too large to buffer: every dynamic access is a
          single-word bus transaction *)
  power_w : float;  (** average power of the serving core *)
  clock_scale : float;
      (** core clock period relative to the system clock: an FSM core
          clocks at its slowest functional unit + mux/control margin *)
  seg_lengths : (int * int) list;
      (** (anchor sid, schedule length) per segment: cycles of one
          segment execution *)
}

type report = {
  outputs : int list;
  up_cycles : int;
  stall_cycles : int;
  asic_cycles : int;
  instr_count : int;
  icache_j : float;
  dcache_j : float;
  mem_j : float;  (** memory access + standby *)
  bus_j : float;
  up_j : float;
  asic_j : float;
  icache_stats : Lp_cache.Cache.stats;
  dcache_stats : Lp_cache.Cache.stats;
  mem_totals : Lp_mem.Memory.totals;
  asic_invocations : int;
  class_counts : (Lp_isa.Isa.opclass * int) list;
      (** executed instructions per opcode class — the instruction-level
          power model's native granularity (Tiwari-style) *)
}

val total_energy_j : report -> float
val total_cycles : report -> int

val runtime_s : ?platform:Lp_tech.Platform.t -> report -> float
(** Wall-clock duration of the run at the platform's clock (default
    sparclite, 20 MHz). *)

val memory_hooks :
  icache:Lp_cache.Cache.t ->
  dcache:Lp_cache.Cache.t ->
  mem:Lp_mem.Memory.t ->
  ?mailbox_lo:int ->
  ?mailbox_hi:int ->
  acall:(Lp_iss.Iss.t -> int -> unit) ->
  unit ->
  Lp_iss.Iss.hooks
(** The uP-side memory system as ISS hooks, as {!prepare} installs it:
    a block's fetch settles with one cache probe per line (and not at
    all while the I-cache's residency epoch holds), every data access
    goes straight to the D-cache (accesses inside the uncached mailbox
    word-address window [\[mailbox_lo, mailbox_hi)], default empty, go
    over the bus), and at halt memory, bus and stall cycles are charged
    once from the caches' cumulative traffic. The caches and [mem] must
    be fresh. Accounting is access-for-access identical to per-word
    hooks; exposed so the differential tests can wire the production
    memory system to both ISS engines. *)

type sim
(** A compiled program loaded into a machine wired to its memory
    system and ASIC tasks, not yet run. *)

val prepare :
  ?config:config -> ?tasks:asic_task list -> Lp_ir.Ast.program -> sim
(** Compile the program and build the machine {!run} runs. *)

val machine : sim -> Lp_iss.Iss.t
(** The machine, for callers that time or count the ISS run alone:
    {!Lp_iss.Iss.run} runs it, memory system included. *)

val run : ?config:config -> ?tasks:asic_task list -> Lp_ir.Ast.program -> report
(** [run p] runs the machine of [prepare p] to [Halt] and reports: it
    compiles and simulates [p]. With
    [tasks], the corresponding clusters execute on ASIC cores ([Acall]
    handshake); without, the whole program runs in software — the
    paper's initial design "I".

    The observable outputs are independent of the partitioning; the
    differential tests rely on that. *)

val pp_report : Format.formatter -> report -> unit
