(** Cycle- and energy-accounting instruction-set simulator for the
    {!Lp_isa.Isa} core — the paper's "instruction set simulator tool
    (ISS)" with "the facility to calculate the energy consumption
    depending on the instruction executed at a point in time"
    (Section 3.5).

    The simulator owns the uP core only. The memory system (caches,
    bus, main memory) and any ASIC cores are supplied as {!hooks} by the
    system simulator, which charges their energy on its own books and
    reports the stall cycles the uP observed once, when the run halts.
    This keeps the per-core energy split of Table 1 honest: uP energy
    here, everything else where it physically happens.

    Execution is block-compiled: straight-line regions are lazily
    decoded into basic-block superops (pre-aggregated cycle/class
    accounting plus a direct-threaded closure chain). A block entry
    only charges fuel, counts itself, settles the class transition
    from the previous block and, unless the I-cache's residency epoch
    makes it redundant, fetches the block in one hook call; every
    load and store calls the D-hook itself. Totals are entries × the
    blocks' aggregates, folded in when they are read. The
    per-instruction reference interpreter ({!run_stepwise}) remains as
    the differential oracle; both paths produce identical integer
    counters. *)

type t
(** A running machine. *)

type hooks = {
  ifetch : int -> int -> int;
      (** [ifetch byte_addr n] models the fetch of [n] sequential
          instruction words starting at [byte_addr] (one basic block, or
          one instruction when the reference engine runs). It returns
          the value of [!iepoch] under which the same fetch would change
          nothing — every word hit in a cache whose replacement state
          the hits do not move — or [-1]. A block entry skips its fetch
          while [!iepoch] still holds the value its last fetch
          returned. I-cache reads are not the fetch's to count: they
          are one per executed instruction, see [settle]. *)
  iepoch : int ref;
      (** the I-cache's residency epoch, written by the memory system
          whenever a line is filled or flushed; read-only here *)
  dread : int -> unit;  (** one data read, byte address *)
  dwrite : int -> unit;  (** one data write, byte address *)
  acall : t -> int -> unit;
      (** [acall machine k]: execute ASIC cluster [k]. The callback may
          use {!read_mem}/{!write_mem}/{!push_output} and must add the
          ASIC's cycles via {!add_asic_cycles}. The uP core is shut down
          meanwhile (no uP energy, no uP cycles). Every earlier data
          access has already reached [dread]/[dwrite]. *)
  settle : int -> int;
      (** [settle instrs] is called once, when the machine halts, with
          the number of instructions it executed. The memory system
          charges what it deferred and returns the run's stall
          cycles. *)
}

val null_hooks : hooks
(** No memory system: zero stalls, failing [acall]. *)

val word_hooks :
  ?ifetch:(int -> int) ->
  ?dread:(int -> int) ->
  ?dwrite:(int -> int) ->
  ?acall:(t -> int -> unit) ->
  unit ->
  hooks
(** Hooks from per-word callbacks that return stall cycles: each fetch
    run is expanded into one [ifetch] call per instruction word (no
    fetch is ever skipped) and each data access is one [dread]/[dwrite]
    call, in program order. The returned stalls add up to what
    [settle] reports. For tests and tracing; omitted callbacks return
    zero stalls ([acall] fails like {!null_hooks}). *)

exception Runtime_error of string

val create : ?fuel:int -> Lp_isa.Isa.program -> hooks -> t
(** [fuel] bounds executed instructions (default 500 million). *)

val load_data : t -> int -> int array -> unit
(** Preload a data-memory image at a word address. *)

val run : t -> unit
(** Execute until [Halt] on the block-compiled path.
    @raise Runtime_error on a dynamic error. *)

val run_stepwise : t -> unit
(** Execute until [Halt] one instruction at a time — the reference
    engine the block path is differentially tested against. Hooks see
    runs of length 1. *)

val block_stats : t -> int * int
(** [(blocks_decoded, block_entries)]: static superops compiled so far
    and dynamic block executions. [run_stepwise] leaves both at 0. *)


(** {2 State access (also for [acall] callbacks)} *)

val read_mem : t -> int -> int
val write_mem : t -> int -> int -> unit

val read_mem_block : t -> int -> int array -> unit
(** [read_mem_block t base dst] fills [dst] from data memory starting at
    word address [base] — one bounds check per block, not per word. The
    system simulator's ASIC model snapshots shared arrays with this. *)

val write_mem_block : t -> int -> int array -> unit
(** [write_mem_block t base src] writes [src] back to data memory at
    [base], normalising each word ({!Lp_ir.Word.norm}) like
    {!write_mem}. *)

val mem_size : t -> int
val push_output : t -> int -> unit
val add_asic_cycles : t -> int -> unit

(** {2 Results} *)

type result = {
  outputs : int list;
  instr_count : int;
  up_cycles : int;  (** cycles the uP core was executing *)
  stall_cycles : int;  (** uP stalled on the memory system *)
  asic_cycles : int;  (** cycles spent inside ASIC cores *)
  up_energy_j : float;  (** uP core energy (incl. stall energy) *)
  class_counts : (Lp_isa.Isa.opclass * int) list;
}

val result : t -> result

val total_cycles : result -> int
(** [up_cycles + stall_cycles + asic_cycles]: the wall-clock of the
    run. *)

val runtime_s : result -> float
(** Total cycles at the system clock. *)
