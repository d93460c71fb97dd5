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
   (one probe per data access, and per line of a fetch that cannot be
   settled by its residency epoch), and flat
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
  mutable flush_writebacks : int;  (** lines of [s_writebacks] flushed *)
  mutable uncached_reads : int;
  mutable uncached_writes : int;
  epoch : int ref;
      (** bumped on every line fill and every flush: while it stays
          put, no line has left the cache *)
  mutable fetch_probes : int;
}

type event = {
  hit : bool;
  fill_words : int;
  writeback_words : int;
  through_words : int;
}

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
    flush_writebacks = 0;
    uncached_reads = 0;
    uncached_writes = 0;
    epoch = ref 0;
    fetch_probes = 0;
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

(* Miss with allocation: put [tag] into [set]'s victim way, as the
   last of [k] accesses to it, and return the dirty words the victim
   wrote back. *)
let fill t set tag ~write ~k =
  let slot = victim_slot t set in
  let wb = if t.tags.(slot) >= 0 && t.dirty.(slot) then line_words t else 0 in
  if wb > 0 then t.s_writebacks <- t.s_writebacks + 1;
  t.tags.(slot) <- tag;
  t.dirty.(slot) <- write;
  incr t.epoch;
  t.clock <- t.clock + k;
  Array.unsafe_set t.lru slot t.clock;
  wb

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
      let wb = fill t set tag ~write ~k:1 in
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

(* --- the co-simulation's paths -------------------------------------- *)

(* [k] sequential reads of line [line_no], settled with a single probe.
   Nothing else touches the cache between them, so the first read
   decides residency and the remaining k-1 hit the same way; k touches
   of one way advance the LRU clock by k and leave the way stamped with
   the final clock, exactly as k individual [access] calls would. The
   reads themselves are counted by the caller. *)
let[@inline] fetch_line t line_no k =
  let set = line_no land t.set_mask in
  let tag = line_no lsr t.set_shift in
  let slot = find_slot t set tag in
  if slot >= 0 then begin
    t.clock <- t.clock + k;
    Array.unsafe_set t.lru slot t.clock
  end
  else begin
    t.s_read_misses <- t.s_read_misses + 1;
    ignore (fill t set tag ~write:false ~k)
  end

(* [n] sequential word reads starting at byte address [addr]: the
   instruction fetch of a basic block, one probe per line. It returns
   the epoch under which repeating it would change nothing (DESIGN
   §13):
   - a fetch that filled no line left the epoch alone, and while the
     epoch stays put no line is filled or flushed, so every line it
     found is still resident;
   - with one way per set the LRU stamps decide nothing, so skipping
     them changes no later outcome; with more ways they would, so such
     fetches return -1;
   - a fetch that missed returns -1: a block longer than the cache
     evicts its own lines. *)
let fetch t addr n =
  let e0 = !(t.epoch) in
  let line = ref (addr lsr t.line_shift) in
  (* Words from [addr] to the end of its line, then whole lines. *)
  let k = ref ((((!line + 1) lsl t.line_shift) - addr) lsr 2) in
  let left = ref n in
  while !left > 0 do
    (* Not [min]: on ints it is still a polymorphic compare, one C
       call per fetched line. *)
    let run = if !left < !k then !left else !k in
    fetch_line t !line run;
    t.fetch_probes <- t.fetch_probes + 1;
    left := !left - run;
    incr line;
    k := t.cfg.line_bytes lsr 2
  done;
  if t.assoc = 1 && !(t.epoch) = e0 then e0 else -1

let epoch t = t.epoch

let count_reads t n = t.s_reads <- t.s_reads + n

let fetch_probes t = t.fetch_probes

(* One data access at a time, in program order. Accesses inside the
   uncached byte window [[uncached_lo, uncached_hi)] bypass the cache
   and are only counted: each is one word on the bus. The closures are
   built here, not in the caller, so that the probe inlines into them
   and an access costs one indirect call. *)
let data_port t ~uncached_lo ~uncached_hi =
  let write_back = t.cfg.policy = Write_back in
  let read addr =
    if addr >= uncached_lo && addr < uncached_hi then
      t.uncached_reads <- t.uncached_reads + 1
    else begin
      t.s_reads <- t.s_reads + 1;
      let line_no = addr lsr t.line_shift in
      let set = line_no land t.set_mask in
      let tag = line_no lsr t.set_shift in
      let slot = find_slot t set tag in
      if slot >= 0 then touch t slot
      else begin
        t.s_read_misses <- t.s_read_misses + 1;
        ignore (fill t set tag ~write:false ~k:1)
      end
    end
  in
  let write addr =
    if addr >= uncached_lo && addr < uncached_hi then
      t.uncached_writes <- t.uncached_writes + 1
    else begin
      t.s_writes <- t.s_writes + 1;
      let line_no = addr lsr t.line_shift in
      let set = line_no land t.set_mask in
      let tag = line_no lsr t.set_shift in
      let slot = find_slot t set tag in
      if slot >= 0 then begin
        touch t slot;
        if write_back then Array.unsafe_set t.dirty slot true
      end
      else begin
        t.s_write_misses <- t.s_write_misses + 1;
        (* Write-through is no-allocate: the word goes to memory. *)
        if write_back then ignore (fill t set tag ~write:true ~k:1)
      end
    end
  in
  (read, write)

type traffic = {
  misses : int;
  fill_words : int;
  evict_words : int;
  through_words : int;
  miss_words : int;
  uncached_reads : int;
  uncached_writes : int;
}

(* Every miss is one event: a read miss or a write-back write miss
   fills one line (and evicts a dirty victim's line), a write-through
   write miss moves its one word. Every write-through write moves one
   word whether it hits or not. So the traffic is a product of the
   counters, and so is its stall penalty, which is linear in misses and
   moved words. Flushes are the caller's to charge. *)
let traffic t =
  let lw = line_words t in
  let write_through = t.cfg.policy = Write_through in
  let fill_words =
    lw * (t.s_read_misses + if write_through then 0 else t.s_write_misses)
  in
  let evict_words = lw * (t.s_writebacks - t.flush_writebacks) in
  {
    misses = t.s_read_misses + t.s_write_misses;
    fill_words;
    evict_words;
    through_words = (if write_through then t.s_writes else 0);
    miss_words =
      fill_words + evict_words + if write_through then t.s_write_misses else 0;
    uncached_reads = t.uncached_reads;
    uncached_writes = t.uncached_writes;
  }

let flush t =
  let words = ref 0 in
  let ways_total = Array.length t.tags in
  for i = 0 to ways_total - 1 do
    if t.tags.(i) >= 0 && t.dirty.(i) then begin
      words := !words + line_words t;
      t.s_writebacks <- t.s_writebacks + 1;
      t.flush_writebacks <- t.flush_writebacks + 1
    end;
    t.tags.(i) <- -1;
    t.dirty.(i) <- false;
    t.lru.(i) <- 0
  done;
  incr t.epoch;
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
