(** Set-associative cache simulator with an analytic per-access energy
    model — the role the WARTS-fed cache profiler and the "analytical
    models for ... caches" play in the paper (Fig. 5, Section 4).

    Functional simulation: LRU replacement, write-back/write-allocate or
    write-through/no-allocate, full hit/miss/write-back event reporting
    so the system simulator can charge bus and memory energy for every
    line moved.

    Energy: a Kamble–Ghose-style decomposition over the SRAM geometry
    implied by the configuration — address decode, wordline of
    [assoc * line] cells, bitline swings, sense amplifiers, tag
    compares — built from the {!Lp_tech.Cmos6} primitives. Energy is
    charged per access (reads and writes differ); the traffic caused by
    misses is charged by the caller using the event counts. *)

type write_policy = Write_back | Write_through

type config = {
  size_bytes : int;  (** total data capacity *)
  line_bytes : int;  (** line (block) size *)
  assoc : int;  (** ways; [size/line/assoc] sets *)
  policy : write_policy;
}

val default_icache : config
(** 2 KiB, 16-byte lines, direct-mapped (SPARClite-class). *)

val default_dcache : config
(** 2 KiB, 16-byte lines, 2-way, write-back. *)

val config_valid : config -> bool
(** Sizes are powers of two and divide evenly. *)

val config_of_geom : Lp_tech.Platform.cache_geom -> config
(** The cache geometry of a {!Lp_tech.Platform} as a simulator
    config. *)

type t

type event = {
  hit : bool;
  fill_words : int;  (** words fetched from memory (line fill) *)
  writeback_words : int;  (** dirty words written back to memory *)
  through_words : int;  (** words written through to memory *)
}

val create : ?energy_scale:float -> config -> t
(** [create ?energy_scale cfg]. [energy_scale] (default [1.0]) scales
    the per-access array energies — the Vdd^2 ratio of a platform
    running its SRAMs below the nominal supply
    ({!Lp_tech.Platform.energy_scale}). Functional behaviour and all
    counters are unaffected. *)

val config : t -> config

val read : t -> int -> event
(** [read c byte_addr]. *)

val write : t -> int -> event

val read_hit : t -> int -> bool
(** Allocation-free fast path. [read_hit c byte_addr] probes for a hit:
    on [true] the access is fully accounted (stats, energy, LRU) and —
    a hit moving no words — costs zero stall cycles, so no event is
    needed. On [false] {e nothing} was accounted; the caller must take
    the event path ({!read}). Behaviourally identical to checking
    [(read c a).hit] first, minus the event allocation. *)

val write_hit : t -> int -> bool
(** Like {!read_hit} for writes. Only write-back hits qualify ([false]
    on any write-through cache): a write-through hit still moves a word
    to memory, which the caller charges from the {!write} event. *)

type run_event = {
  mutable run_misses : int;  (** miss {e events} *)
  mutable run_fill_words : int;  (** words fetched for line fills *)
  mutable run_writeback_words : int;  (** dirty words evicted *)
  mutable run_through_words : int;  (** words written through *)
  mutable run_miss_words : int;
      (** words moved by the miss events alone (fills + their evictions
          + through words of missing writes) — with [run_misses] this
          reconstructs the exact sum of per-event stall penalties, see
          [Lp_mem.Memory.miss_penalty_run] *)
  mutable run_uncached_reads : int;
      (** {!drain} only: reads inside the uncached window, one word each *)
  mutable run_uncached_writes : int;  (** likewise for writes *)
}
(** Aggregate of one bulk call. The returned record is a per-cache
    scratch buffer: it is only valid until the next bulk call on the
    same cache, and must not be mutated. Stats, energy and LRU effects
    are identical to performing the accesses one at a time through
    {!read}/{!write}. *)

val read_run : t -> int -> int -> run_event
(** [read_run c byte_addr n] reads [n] sequential words starting at
    [byte_addr] (word-aligned) — the instruction fetch of a basic
    block. The run may span lines and pays one probe per line, unless
    the same [(byte_addr, n)] fetch last completed without a miss, the
    cache is direct-mapped, and no line has been filled or flushed
    since: then it probes nothing (the residency epoch, DESIGN §13). *)

val fetch_probes : t -> int
(** Tag probes {!read_run} has made so far (one per line on its slow
    path). A count for tests and benches; not part of {!stats}. *)

val drain :
  t -> uncached_lo:int -> uncached_hi:int -> int array -> int -> run_event
(** [drain c ~uncached_lo ~uncached_hi buf n] performs the first [n]
    data accesses of [buf] in order, each packed as
    [byte_addr lor write_bit] (addresses word-aligned, bit 0 = write).
    Maximal runs of same-kind accesses to one line pay one probe each.
    Accesses with [uncached_lo <= byte_addr < uncached_hi] bypass the
    cache: they touch no counter of it and are returned as
    [run_uncached_reads]/[run_uncached_writes].
    @raise Invalid_argument if [n] exceeds [Array.length buf]. *)

val locate : t -> int -> int * int
(** [(set, tag)] of a byte address — exposed so tests can check the
    shift/mask decomposition against the div/mod definition
    [(line mod sets, line / sets)] with [line = addr / line_bytes]. *)

val flush : t -> int
(** Write back all dirty lines and invalidate everything; returns the
    number of words written back (charged by the caller). Used when an
    ASIC core is about to touch shared memory. *)

type stats = {
  reads : int;
  writes : int;
  read_misses : int;
  write_misses : int;
  writebacks : int;  (** lines written back *)
  energy_j : float;  (** array-access energy accumulated so far *)
}

val stats : t -> stats

val read_energy_j : config -> float
(** Array energy of one read access (hit and miss cost the same at the
    array; miss traffic is extra and charged by the caller). *)

val write_energy_j : config -> float

val sets : config -> int

val pp_config : Format.formatter -> config -> unit
val pp_stats : Format.formatter -> stats -> unit
