module Cmos6 = Lp_tech.Cmos6

type write_policy = Write_back | Write_through

type config = {
  size_bytes : int;
  line_bytes : int;
  assoc : int;
  policy : write_policy;
}

let default_icache =
  { size_bytes = 2048; line_bytes = 16; assoc = 1; policy = Write_back }

let default_dcache =
  { size_bytes = 2048; line_bytes = 16; assoc = 2; policy = Write_back }

let config_of_geom (g : Lp_tech.Platform.cache_geom) =
  {
    size_bytes = g.Lp_tech.Platform.geom_size_bytes;
    line_bytes = g.Lp_tech.Platform.geom_line_bytes;
    assoc = g.Lp_tech.Platform.geom_assoc;
    policy =
      (if g.Lp_tech.Platform.geom_write_through then Write_through
       else Write_back);
  }

let is_pow2 n = n > 0 && n land (n - 1) = 0

let sets cfg = cfg.size_bytes / (cfg.line_bytes * cfg.assoc)

let config_valid cfg =
  is_pow2 cfg.size_bytes && is_pow2 cfg.line_bytes && cfg.assoc > 0
  && cfg.line_bytes >= 4
  && cfg.size_bytes >= cfg.line_bytes * cfg.assoc
  && sets cfg * cfg.line_bytes * cfg.assoc = cfg.size_bytes

type stats = {
  reads : int;
  writes : int;
  read_misses : int;
  write_misses : int;
  writebacks : int;
  energy_j : float;
}

(* Directory state lives in flat arrays indexed by [set * assoc + way]:
   the probe/touch path is the innermost loop of the whole co-simulation
   (one probe per data-access run, and per line of a fetch that cannot
   be settled by its residency epoch), and flat
   int arrays with in-range-by-construction unsafe accesses beat a
   record-per-line layout by a wide margin. A line's validity is folded
   into its tag: real tags are non-negative, [-1] means invalid. *)
type t = {
  cfg : config;
  assoc : int;
  tags : int array;  (** [set * assoc + way]; -1 = invalid *)
  dirty : bool array;
  lru : int array;  (** higher = more recently used *)
  (* Geometry is power-of-two-validated at [create], so address
     decomposition reduces to shifts and masks precomputed here;
     per-access array energies are likewise computed once (the analytic
     model takes logs), not per access. *)
  line_shift : int;  (** log2 line_bytes *)
  set_mask : int;  (** sets - 1 *)
  set_shift : int;  (** log2 sets *)
  read_e : float;  (** energy of one read access *)
  write_e : float;  (** energy of one write access *)
  mutable clock : int;
  mutable s_reads : int;
  mutable s_writes : int;
  mutable s_read_misses : int;
  mutable s_write_misses : int;
  mutable s_writebacks : int;
  mutable epoch : int;
      (** bumped on every line fill and every flush: while it stays
          put, no line has left the cache *)
  fetch_memo : int array;
      (** [fetch_slots] entries of (start word, words, epoch);
          empty unless direct-mapped *)
  mutable fetch_probes : int;
  scratch : run_scratch;
}

and run_scratch = {
  mutable run_misses : int;
  mutable run_fill_words : int;
  mutable run_writeback_words : int;
  mutable run_through_words : int;
  mutable run_miss_words : int;
  mutable run_uncached_reads : int;
  mutable run_uncached_writes : int;
}

type event = {
  hit : bool;
  fill_words : int;
  writeback_words : int;
  through_words : int;
}

(* Aggregate of a bulk call: a block's fetch run or its whole D-access
   drain. The block-compiled ISS batches same-line accesses, so the
   per-access event record would allocate on every run; instead each
   cache owns one mutable scratch record that the bulk entry points
   refill and return. [run_miss_words] is the word traffic of the miss
   events only — the caller reconstructs the exact per-event stall
   penalty from ([run_misses], [run_miss_words]) because the penalty is
   linear in both (see [Lp_mem.Memory.miss_penalty_run]). *)
type run_event = run_scratch = {
  mutable run_misses : int;
  mutable run_fill_words : int;
  mutable run_writeback_words : int;
  mutable run_through_words : int;
  mutable run_miss_words : int;
  mutable run_uncached_reads : int;
  mutable run_uncached_writes : int;
}

(* Direct-mapped table of recorded fetches, indexed by start word; a
   power of two. Code beyond it only costs collisions, i.e. probes. *)
let fetch_slots = 1024

(* Analytic per-access array energy from the geometry. The row that is
   activated spans [assoc] ways of [line_bytes] cells plus tags. *)
let access_energy cfg ~write =
  let n_sets = sets cfg in
  let index_bits =
    int_of_float (Float.round (Float.log2 (float_of_int (max n_sets 1))))
  in
  let row_bits = (cfg.line_bytes * 8 * cfg.assoc) + (cfg.assoc * 24) in
  let decode = float_of_int (max index_bits 1) *. Cmos6.sram_decode_energy_j in
  let wordline = float_of_int row_bits /. 128.0 *. Cmos6.sram_wordline_energy_j in
  let bitline = float_of_int row_bits *. Cmos6.sram_bitline_energy_j in
  let sense = float_of_int row_bits *. Cmos6.sram_sense_energy_j in
  let base = decode +. wordline +. bitline +. sense in
  (* Writes drive full-swing bitlines on the written word. *)
  if write then base +. (32.0 *. Cmos6.sram_bitline_energy_j *. 2.0) else base

let read_energy_j cfg = access_energy cfg ~write:false
let write_energy_j cfg = access_energy cfg ~write:true

let log2_exact n =
  let rec go k m = if m >= n then k else go (k + 1) (m * 2) in
  go 0 1

let create ?(energy_scale = 1.0) cfg =
  if not (config_valid cfg) then invalid_arg "Cache.create: invalid geometry";
  if not (energy_scale >= 0.0) then
    invalid_arg "Cache.create: energy_scale must be >= 0";
  let n = sets cfg in
  let ways_total = n * cfg.assoc in
  {
    cfg;
    assoc = cfg.assoc;
    tags = Array.make ways_total (-1);
    dirty = Array.make ways_total false;
    lru = Array.make ways_total 0;
    line_shift = log2_exact cfg.line_bytes;
    set_mask = n - 1;
    set_shift = log2_exact n;
    (* SRAM energies are characterised at the nominal Cmos6 supply; a
       platform running its core (and caches) at a different Vdd scales
       them by the Vdd^2 ratio, folded in once here — the hot path
       never sees the platform. At the default scale [1.0] the floats
       are bit-identical ([x *. 1.0 = x] in IEEE). *)
    read_e = access_energy cfg ~write:false *. energy_scale;
    write_e = access_energy cfg ~write:true *. energy_scale;
    clock = 0;
    s_reads = 0;
    s_writes = 0;
    s_read_misses = 0;
    s_write_misses = 0;
    s_writebacks = 0;
    epoch = 0;
    fetch_memo =
      (if cfg.assoc = 1 then Array.make (3 * fetch_slots) (-1) else [||]);
    fetch_probes = 0;
    scratch =
      {
        run_misses = 0;
        run_fill_words = 0;
        run_writeback_words = 0;
        run_through_words = 0;
        run_miss_words = 0;
        run_uncached_reads = 0;
        run_uncached_writes = 0;
      };
  }

let config t = t.cfg

let line_words t = t.cfg.line_bytes / 4

let locate t addr =
  let line_no = addr lsr t.line_shift in
  let set = line_no land t.set_mask in
  let tag = line_no lsr t.set_shift in
  (set, tag)

(* -1 = no way holds the tag; otherwise the flat index [set*assoc+way].
   [set] comes masked and [tag] is non-negative, so the unsafe reads
   stay in range and an invalid way (tag -1) can never match.

   The probe is the innermost work of the co-simulation, and the build
   has no flambda: a local recursive function over [t]/[tag] would be a
   closure allocated on every probe (2.6 minor words per simulated
   instruction over the paper programs), so the scans below are plain
   loops over refs, which the compiler keeps in registers. *)
let[@inline] find_slot t set tag =
  let i = ref (set * t.assoc) in
  let last = !i + t.assoc - 1 in
  while !i <= last && Array.unsafe_get t.tags !i <> tag do
    incr i
  done;
  if !i > last then -1 else !i

let[@inline] touch t slot =
  t.clock <- t.clock + 1;
  Array.unsafe_set t.lru slot t.clock

(* Invalid way first, else least recently used. *)
let victim_slot t set =
  let base = set * t.assoc in
  let last = base + t.assoc - 1 in
  let i = ref base in
  while !i <= last && Array.unsafe_get t.tags !i >= 0 do
    incr i
  done;
  if !i <= last then !i
  else begin
    let best = ref base in
    for i = base + 1 to last do
      if Array.unsafe_get t.lru i < Array.unsafe_get t.lru !best then best := i
    done;
    !best
  end

(* Hits that move no words (clean read hits, write-back write hits) and
   write-through events have constant event payloads; sharing one
   immutable record per shape keeps the event path allocation-free
   except for genuine line movement. *)
let ev_hit = { hit = true; fill_words = 0; writeback_words = 0; through_words = 0 }

let ev_hit_through =
  { hit = true; fill_words = 0; writeback_words = 0; through_words = 1 }

let ev_miss_through =
  { hit = false; fill_words = 0; writeback_words = 0; through_words = 1 }

let access t addr ~write =
  let set, tag = locate t addr in
  if write then t.s_writes <- t.s_writes + 1
  else t.s_reads <- t.s_reads + 1;
  let slot = find_slot t set tag in
  if slot >= 0 then begin
    touch t slot;
    if write then begin
      match t.cfg.policy with
      | Write_back ->
          Array.unsafe_set t.dirty slot true;
          ev_hit
      | Write_through -> ev_hit_through
    end
    else ev_hit
  end
  else begin
    if write then t.s_write_misses <- t.s_write_misses + 1
    else t.s_read_misses <- t.s_read_misses + 1;
    if write && t.cfg.policy = Write_through then
      (* No-allocate: the word goes straight to memory. *)
      ev_miss_through
    else begin
      let slot = victim_slot t set in
      let wb = if t.tags.(slot) >= 0 && t.dirty.(slot) then line_words t else 0 in
      if wb > 0 then t.s_writebacks <- t.s_writebacks + 1;
      t.tags.(slot) <- tag;
      t.dirty.(slot) <- write;
      t.epoch <- t.epoch + 1;
      touch t slot;
      {
        hit = false;
        fill_words = line_words t;
        writeback_words = wb;
        through_words = 0;
      }
    end
  end

let read t addr = access t addr ~write:false
let write t addr = access t addr ~write:true

(* Allocation-free hit fast paths. A hit that moves no words costs the
   uP zero stall cycles, so the caller needs no event at all: [true]
   means the access is fully accounted (stats, energy, LRU) and done.
   [false] means {e nothing} was accounted — the caller must fall back
   to the event-returning path, which redoes the (cheap) way probe and
   handles misses, write-through traffic and replacement. *)

let read_hit t addr =
  let line_no = addr lsr t.line_shift in
  let set = line_no land t.set_mask in
  let slot = find_slot t set (line_no lsr t.set_shift) in
  slot >= 0
  && begin
       t.s_reads <- t.s_reads + 1;
       touch t slot;
       true
     end

let write_hit t addr =
  (* Only write-back hits qualify: a write-through hit still moves a
     word to memory, which the caller must charge via the event path. *)
  t.cfg.policy = Write_back
  &&
  let line_no = addr lsr t.line_shift in
  let set = line_no land t.set_mask in
  let slot = find_slot t set (line_no lsr t.set_shift) in
  slot >= 0
  && begin
       t.s_writes <- t.s_writes + 1;
       Array.unsafe_set t.dirty slot true;
       touch t slot;
       true
     end

(* --- bulk runs ----------------------------------------------------- *)

let reset_run r =
  r.run_misses <- 0;
  r.run_fill_words <- 0;
  r.run_writeback_words <- 0;
  r.run_through_words <- 0;
  r.run_miss_words <- 0;
  r.run_uncached_reads <- 0;
  r.run_uncached_writes <- 0

(* What a fetch settled without a probe returns; never written. *)
let no_traffic =
  {
    run_misses = 0;
    run_fill_words = 0;
    run_writeback_words = 0;
    run_through_words = 0;
    run_miss_words = 0;
    run_uncached_reads = 0;
    run_uncached_writes = 0;
  }

(* [k] same-kind accesses to line [line_no], settled with a single
   probe. Nothing else touches the cache between the accesses of
   a run, so the first access decides residency and the remaining k-1
   are hits on the same way; k touches of one way advance the LRU clock
   by k and leave the way stamped with the final clock, exactly as k
   individual [access] calls would. The one non-uniform case is a
   write-through write miss: no-allocate means the line never becomes
   resident, so all k accesses miss independently, each moving its own
   word (and paying its own miss penalty, hence k miss events). The
   caller counts the k accesses in [s_reads]/[s_writes]. *)
let[@inline] run_line t line_no ~write k acc =
  let set = line_no land t.set_mask in
  let tag = line_no lsr t.set_shift in
  let slot = find_slot t set tag in
  if slot >= 0 then begin
    t.clock <- t.clock + k;
    Array.unsafe_set t.lru slot t.clock;
    if write then
      match t.cfg.policy with
      | Write_back -> Array.unsafe_set t.dirty slot true
      | Write_through -> acc.run_through_words <- acc.run_through_words + k
  end
  else if write && t.cfg.policy = Write_through then begin
    t.s_write_misses <- t.s_write_misses + k;
    acc.run_misses <- acc.run_misses + k;
    acc.run_through_words <- acc.run_through_words + k;
    acc.run_miss_words <- acc.run_miss_words + k
  end
  else begin
    if write then t.s_write_misses <- t.s_write_misses + 1
    else t.s_read_misses <- t.s_read_misses + 1;
    let slot = victim_slot t set in
    let wb = if t.tags.(slot) >= 0 && t.dirty.(slot) then line_words t else 0 in
    if wb > 0 then t.s_writebacks <- t.s_writebacks + 1;
    t.tags.(slot) <- tag;
    t.dirty.(slot) <- write;
    t.epoch <- t.epoch + 1;
    t.clock <- t.clock + k;
    Array.unsafe_set t.lru slot t.clock;
    let fill = line_words t in
    acc.run_misses <- acc.run_misses + 1;
    acc.run_fill_words <- acc.run_fill_words + fill;
    acc.run_writeback_words <- acc.run_writeback_words + wb;
    acc.run_miss_words <- acc.run_miss_words + fill + wb
  end

(* [n] sequential word reads starting at byte address [addr]: the
   instruction fetch of a basic block. The slow path pays one probe per
   line. A fetch that found every line resident is recorded with the
   cache's epoch, and the same fetch at the same epoch on a
   direct-mapped cache settles with no probe (DESIGN §13):
   - no line was filled or flushed since the recorded fetch, so every
     line it found is still resident;
   - with one way per set the LRU stamps decide nothing, so leaving
     them alone changes no later outcome; with more ways they would,
     so such fetches are never recorded;
   - a fetch that missed is never recorded: a block longer than the
     cache evicts its own lines. *)
let read_run t addr n =
  t.s_reads <- t.s_reads + n;
  let w = addr lsr 2 in
  let memo = t.fetch_memo in
  let e = 3 * (w land (fetch_slots - 1)) in
  if
    t.assoc = 1
    && Array.unsafe_get memo e = w
    && Array.unsafe_get memo (e + 1) = n
    && Array.unsafe_get memo (e + 2) = t.epoch
  then no_traffic
  else begin
    let acc = t.scratch in
    reset_run acc;
    let line = ref (addr lsr t.line_shift) in
    (* Words from [addr] to the end of its line, then whole lines. *)
    let k = ref ((((!line + 1) lsl t.line_shift) - addr) lsr 2) in
    let left = ref n in
    while !left > 0 do
      (* Not [min]: on ints it is still a polymorphic compare, one C
         call per fetched line. *)
      let run = if !left < !k then !left else !k in
      run_line t !line ~write:false run acc;
      t.fetch_probes <- t.fetch_probes + 1;
      left := !left - run;
      incr line;
      k := t.cfg.line_bytes lsr 2
    done;
    if acc.run_misses = 0 && t.assoc = 1 then begin
      Array.unsafe_set memo e w;
      Array.unsafe_set memo (e + 1) n;
      Array.unsafe_set memo (e + 2) t.epoch
    end;
    acc
  end

let fetch_probes t = t.fetch_probes

(* A block's data accesses in one call: the first [n] entries of [buf],
   each [byte_addr lor write_bit], in program order. Maximal runs of
   same-kind accesses to one line are settled with one probe each.
   Accesses inside the uncached byte window [[uncached_lo, uncached_hi)]
   bypass the cache and are only counted: each is one word on the bus,
   so their charge is linear in the count. The runs are consecutive
   pieces of the access order, so the cache sees what one call per
   access would show it. *)
let drain t ~uncached_lo ~uncached_hi buf n =
  if n > Array.length buf then invalid_arg "Cache.drain: n exceeds the buffer";
  let acc = t.scratch in
  reset_run acc;
  let shift = t.line_shift in
  let i = ref 0 in
  while !i < n do
    let e = Array.unsafe_get buf !i in
    let wbit = e land 1 in
    let addr = e - wbit in
    if addr >= uncached_lo && addr < uncached_hi then begin
      if wbit = 1 then acc.run_uncached_writes <- acc.run_uncached_writes + 1
      else acc.run_uncached_reads <- acc.run_uncached_reads + 1;
      incr i
    end
    else begin
      let line = addr lsr shift in
      let j = ref (!i + 1) in
      while
        !j < n
        &&
        let e' = Array.unsafe_get buf !j in
        let a' = e' - wbit in
        e' land 1 = wbit
        && a' lsr shift = line
        && not (a' >= uncached_lo && a' < uncached_hi)
      do
        incr j
      done;
      let k = !j - !i in
      let write = wbit = 1 in
      if write then t.s_writes <- t.s_writes + k
      else t.s_reads <- t.s_reads + k;
      run_line t line ~write k acc;
      i := !j
    end
  done;
  acc

let flush t =
  let words = ref 0 in
  let ways_total = Array.length t.tags in
  for i = 0 to ways_total - 1 do
    if t.tags.(i) >= 0 && t.dirty.(i) then begin
      words := !words + line_words t;
      t.s_writebacks <- t.s_writebacks + 1
    end;
    t.tags.(i) <- -1;
    t.dirty.(i) <- false;
    t.lru.(i) <- 0
  done;
  t.epoch <- t.epoch + 1;
  !words

let stats t =
  {
    reads = t.s_reads;
    writes = t.s_writes;
    read_misses = t.s_read_misses;
    write_misses = t.s_write_misses;
    writebacks = t.s_writebacks;
    (* Array energy is strictly per access (reads and writes each have a
       fixed cost), so it is a product of the counters, not a field kept
       in the hot path — a mutable float in this mixed record would box
       and allocate on every single access. *)
    energy_j =
      (float_of_int t.s_reads *. t.read_e)
      +. (float_of_int t.s_writes *. t.write_e);
  }

let pp_config ppf cfg =
  Format.fprintf ppf "%dB/%dB-line/%d-way/%s" cfg.size_bytes cfg.line_bytes
    cfg.assoc
    (match cfg.policy with Write_back -> "WB" | Write_through -> "WT")

let pp_stats ppf s =
  Format.fprintf ppf
    "reads=%d writes=%d rmiss=%d wmiss=%d writebacks=%d energy=%a" s.reads
    s.writes s.read_misses s.write_misses s.writebacks Lp_tech.Units.pp_energy
    s.energy_j
