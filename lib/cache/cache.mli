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
    misses is charged by the caller, from the events or from
    {!traffic}. *)

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

(** {2 The co-simulation's paths}

    The system simulator settles the I-stream and the D-stream through
    these, and charges memory traffic and stall cycles once per run from
    {!traffic}. Stats, energy and LRU effects are identical to
    performing every access through {!read}/{!write}. *)

val fetch : t -> int -> int -> int
(** [fetch c byte_addr n] performs the [n] sequential word reads of a
    basic block's instruction fetch (word-aligned), one probe per line.
    It does {e not} count the reads: the caller settles them with
    {!count_reads}. It returns [!(epoch c)] when the cache is
    direct-mapped and every line hit, and [-1] otherwise: while
    {!epoch} still holds the returned value, the same fetch would hit
    again and move nothing but LRU stamps that one way per set never
    consults, so the caller may skip it (the residency epoch, DESIGN
    §13). *)

val epoch : t -> int ref
(** The residency epoch, bumped on every line fill and every {!flush}.
    Read only. *)

val count_reads : t -> int -> unit
(** [count_reads c n] adds [n] reads to {!stats} (array energy
    included): the fetched words {!fetch} left uncounted. *)

val fetch_probes : t -> int
(** Tag probes {!fetch} has made so far (one per line). A count for
    tests and benches; not part of {!stats}. *)

val data_port :
  t -> uncached_lo:int -> uncached_hi:int -> (int -> unit) * (int -> unit)
(** [data_port c ~uncached_lo ~uncached_hi] is [(read, write)]: one data
    access each, by byte address, in program order. Accesses with
    [uncached_lo <= byte_addr < uncached_hi] bypass the cache: they
    touch no line and no {!stats} counter and are counted in
    {!traffic} as uncached words. *)

type traffic = {
  misses : int;  (** miss events, reads and writes *)
  fill_words : int;  (** words fetched for line fills *)
  evict_words : int;
      (** dirty words written back on replacement ({!flush} excluded:
          its caller charges what it returns) *)
  through_words : int;  (** words written through *)
  miss_words : int;
      (** words moved by the miss events alone (fills, their evictions,
          and the word of a write-through write miss): with [misses]
          this is the exact sum of per-event stall penalties, see
          [Lp_mem.Memory.miss_penalty_run] *)
  uncached_reads : int;  (** {!data_port} reads in the uncached window *)
  uncached_writes : int;
}

val traffic : t -> traffic
(** Cumulative memory traffic of every access so far, through any entry
    point. A product of the counters, so it costs nothing per access. *)

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
