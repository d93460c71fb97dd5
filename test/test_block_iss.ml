(* The block-compiled ISS is the only production engine, so its
   equivalence with the per-instruction reference engine is load-bearing
   for every golden number in the repo. Three layers of defence:

   - bulk cache laws: the co-simulation's paths ([Cache.fetch] with
     epoch-skipped refetches and [Cache.count_reads], the
     [Cache.data_port] with an uncached window) must leave in
     [Cache.traffic] exactly what the per-access event API reports, and
     the stalls derived from it must be the per-event penalties' sum,
     including the LRU clock (checked indirectly: after any
     interleaving the twin caches agree on stats and on the dirty lines
     flushed), with refetched blocks and flushes in the traces;
   - a differential property: random branchy programs executed by the
     block engine and by [run_stepwise], both wired to the production
     [System.memory_hooks] memory system, and by [run_stepwise] on a
     memory system built from the per-access event API, must agree on
     every counter, every cache statistic, memory word-for-word,
     outputs, and energy — including with an uncached mailbox window,
     acalls that flush both caches, and tiny 8-byte-line caches that
     force blocks to span many I-cache lines; two fixed programs run
     the same three-way check under every pair of geometries;
   - memo fingerprint pins: the engine swap must not move the initial-
     report cache keys, or warm flows would silently re-simulate. *)

module Isa = Lp_isa.Isa
module Asm = Lp_isa.Asm
module Iss = Lp_iss.Iss
module Cache = Lp_cache.Cache
module Memory = Lp_mem.Memory
module System = Lp_system.System
module Memo = Lp_core.Memo

(* --- bulk cache laws ------------------------------------------------ *)

(* Small geometries so traces of a few hundred accesses exercise
   replacement and writebacks; 8-byte lines put only two words on a
   line, so word runs cross lines constantly. *)
let cache_cfgs =
  [
    { Cache.size_bytes = 64; line_bytes = 8; assoc = 1; policy = Cache.Write_back };
    { Cache.size_bytes = 64; line_bytes = 8; assoc = 2; policy = Cache.Write_through };
    { Cache.size_bytes = 128; line_bytes = 16; assoc = 2; policy = Cache.Write_back };
    { Cache.size_bytes = 256; line_bytes = 16; assoc = 1; policy = Cache.Write_through };
    (* 4-way: "invalid way first, else LRU" across more than two ways. *)
    { Cache.size_bytes = 64; line_bytes = 8; assoc = 4; policy = Cache.Write_back };
    { Cache.size_bytes = 128; line_bytes = 8; assoc = 4; policy = Cache.Write_through };
  ]

(* Every data port in these laws has the same uncached window: byte
   addresses 96..127 (words 24..31), inside the traced address range. *)
let uncached_lo = 96
let uncached_hi = 128
let uncached a = a >= uncached_lo && a < uncached_hi

(* Fetch shapes a trace keeps coming back to, as a program's blocks do,
   so the residency epoch gets recorded fetches to hit: 20 and 33 words
   are longer than the 64- and 128-byte caches, so those blocks evict
   their own lines. *)
let fetch_shapes = [| (0, 3); (40, 6); (128, 20); (300, 2); (64, 33) |]

type cache_op =
  | Run of int * bool * int  (** same-address accesses: addr, write, k *)
  | Seq of int * int  (** sequential word reads: addr, n *)
  | Fetch of int  (** a [fetch_shapes] read run *)
  | Drain of (int * bool) list  (** a block's mixed data accesses *)
  | Flush

let op_gen =
  QCheck.Gen.(
    let addr = map (fun a -> a * 4) (int_range 0 127) in
    (* Accesses clustered around a base, so a block's accesses hold
       same-line runs broken by kind changes, line changes and the
       uncached window. *)
    let drain =
      let* base = int_range 0 120 in
      list_size (int_range 1 12)
        (pair (map (fun d -> (base + d) * 4) (int_range 0 7)) bool)
    in
    frequency
      [
        (3, map3 (fun a w k -> Run (a, w, k)) addr bool (int_range 1 5));
        (2, map2 (fun a n -> Seq (a, n)) addr (int_range 1 9));
        (4, map (fun i -> Fetch i) (int_range 0 (Array.length fetch_shapes - 1)));
        (4, map (fun l -> Drain l) drain);
        (1, return Flush);
      ])

let op_str = function
  | Run (a, w, k) -> Printf.sprintf "Run(%d,%b,%d)" a w k
  | Seq (a, n) -> Printf.sprintf "Seq(%d,%d)" a n
  | Fetch i -> Printf.sprintf "Fetch%d" i
  | Drain l ->
      Printf.sprintf "Drain[%s]"
        (String.concat ","
           (List.map (fun (a, w) -> Printf.sprintf "%d%s" a (if w then "w" else "")) l))
  | Flush -> "Flush"

let cache_trace =
  QCheck.make
    ~print:(fun (i, ops) ->
      Printf.sprintf "cfg#%d [%s]" i (String.concat ";" (List.map op_str ops)))
    QCheck.Gen.(
      pair
        (int_range 0 (List.length cache_cfgs - 1))
        (list_size (int_range 1 120) op_gen))

(* Replay one op as individual event-API accesses on the twin,
   returning its share of the traffic the production paths must leave in
   [Cache.traffic], plus the stall cycles of its events. A missing event
   contributes all of its word traffic (fill + writeback + through) to
   the miss-stall words; that is exactly [miss_words]'s contract.
   Fetches are never uncached; data accesses in the window are only
   counted, one single-word transaction each. *)
let replay_singles c ~fetch ops =
  let misses = ref 0
  and fills = ref 0
  and wbs = ref 0
  and through = ref 0
  and miss_words = ref 0
  and ur = ref 0
  and uw = ref 0
  and stalls = ref 0 in
  List.iter
    (fun (addr, write) ->
      if (not fetch) && uncached addr then begin
        incr (if write then uw else ur);
        stalls := !stalls + Memory.miss_penalty_cycles ~words:1
      end
      else begin
        let e = if write then Cache.write c addr else Cache.read c addr in
        fills := !fills + e.Cache.fill_words;
        wbs := !wbs + e.Cache.writeback_words;
        through := !through + e.Cache.through_words;
        if not e.Cache.hit then begin
          let moved =
            e.Cache.fill_words + e.Cache.writeback_words + e.Cache.through_words
          in
          incr misses;
          miss_words := !miss_words + moved;
          stalls := !stalls + Memory.miss_penalty_cycles ~words:moved
        end
      end)
    ops;
  [| !misses; !fills; !wbs; !through; !miss_words; !ur; !uw; !stalls |]

let seq a n = List.init n (fun i -> (a + (4 * i), false))

(* The production side's cumulative traffic and the stalls the system
   simulator derives from it. *)
let traffic c =
  let t = Cache.traffic c in
  Cache.
    [|
      t.misses;
      t.fill_words;
      t.evict_words;
      t.through_words;
      t.miss_words;
      t.uncached_reads;
      t.uncached_writes;
      Memory.miss_penalty_run ~misses:t.misses ~words:t.miss_words
      + ((t.uncached_reads + t.uncached_writes)
        * Memory.miss_penalty_cycles ~words:1);
    |]

let prop_bulk_equals_singles =
  QCheck.Test.make ~name:"bulk run APIs aggregate the event API exactly"
    ~count:300 cache_trace (fun (ci, ops) ->
      let cfg = List.nth cache_cfgs ci in
      let bulk = Cache.create cfg and twin = Cache.create cfg in
      let read, write = Cache.data_port bulk ~uncached_lo ~uncached_hi in
      (* Per fetch shape, the epoch its last fetch returned, as a
         decoded block keeps it. *)
      let stamps = Array.make (Array.length fetch_shapes) (-1) in
      let sum = Array.make 8 0 in
      let access l =
        List.iter (fun (a, w) -> if w then write a else read a) l;
        replay_singles twin ~fetch:false l
      in
      let settled delta =
        Array.iteri (fun i d -> sum.(i) <- sum.(i) + d) delta;
        traffic bulk = sum
      in
      let ok =
        List.for_all
          (fun op ->
            match op with
            | Run (a, w, k) -> settled (access (List.init k (fun _ -> (a, w))))
            | Drain l -> settled (access l)
            | Seq (a, n) ->
                ignore (Cache.fetch bulk a n);
                Cache.count_reads bulk n;
                settled (replay_singles twin ~fetch:true (seq a n))
            | Fetch i ->
                let a, n = fetch_shapes.(i) in
                if stamps.(i) <> !(Cache.epoch bulk) then
                  stamps.(i) <- Cache.fetch bulk a n;
                Cache.count_reads bulk n;
                settled (replay_singles twin ~fetch:true (seq a n))
            | Flush ->
                (* A flush's words are the acall's to charge: they stay
                   out of [traffic]. *)
                Cache.flush bulk = Cache.flush twin && traffic bulk = sum)
          ops
      in
      (* Same stats (including identical energy products) and the same
         dirty lines left behind: flushing both must write back the same
         word count, which pins the LRU/replacement state too. *)
      ok
      && Cache.stats bulk = Cache.stats twin
      && Cache.flush bulk = Cache.flush twin)

(* --- block engine vs per-instruction reference ---------------------- *)

(* Random programs with the shapes that stress block compilation:
   straight-line arithmetic runs (one superop each), forward branches
   into later segments, a bounded backward loop, loads/stores off r0,
   Print traps, and Acall exits that invoke the hook mid-trace. *)

let data_words = 16

let straight_gen =
  QCheck.Gen.(
    (* Destinations avoid r7: it is the backward-loop counter, and a
       body write to it could make the generated program diverge. *)
    let reg = int_range 1 6 in
    let any_reg = int_range 0 7 in
    frequency
      [
        (3, map2 (fun d i -> Isa.Li (d, i)) reg (int_range (-1000) 1000));
        ( 4,
          map3
            (fun d a b -> Isa.Add (d, a, b))
            reg any_reg any_reg );
        (2, map3 (fun d a b -> Isa.Sub (d, a, b)) reg any_reg any_reg);
        (2, map3 (fun d a b -> Isa.Mul (d, a, b)) reg any_reg any_reg);
        (2, map3 (fun d a b -> Isa.Xor (d, a, b)) reg any_reg any_reg);
        (2, map3 (fun d a i -> Isa.Addi (d, a, i)) reg any_reg (int_range (-64) 64));
        (2, map3 (fun d a i -> Isa.Slli (d, a, i)) reg any_reg (int_range 0 31));
        (2, map3 (fun d a i -> Isa.Srai (d, a, i)) reg any_reg (int_range 0 31));
        (1, map2 (fun d a -> Isa.Mov (d, a)) reg any_reg);
        (3, map2 (fun d off -> Isa.Ld (d, 0, off)) reg (int_range 0 (data_words - 1)));
        (3, map2 (fun v off -> Isa.St (v, 0, off)) any_reg (int_range 0 (data_words - 1)));
        (1, map (fun r -> Isa.Print r) any_reg);
        (1, map (fun k -> Isa.Acall k) (int_range 0 3));
        (1, return Isa.Nop);
      ])

(* A program is a list of segments; segment [i] may end with a forward
   conditional branch to any later segment's label (or fall through),
   and the whole list is wrapped in a counted backward loop on r7. *)
type seg = { body : Isa.instr list; branch : (bool * int * int) option }
(* branch = (bnez, test reg, target segment offset ahead) *)

let prog_gen =
  QCheck.Gen.(
    let seg n_ahead =
      map2
        (fun body br -> { body; branch = br })
        (list_size (int_range 1 10) straight_gen)
        (if n_ahead <= 0 then return None
         else
           opt
             (map3
                (fun b r t -> (b, r, t))
                bool (int_range 0 7) (int_range 1 n_ahead)))
    in
    let* n = int_range 1 4 in
    let* segs =
      List.init n (fun i -> seg (n - 1 - i)) |> flatten_l
    in
    let* loop_n = int_range 1 3 in
    return (segs, loop_n))

let items_of (segs, loop_n) =
  let n = List.length segs in
  let seg_label i = Printf.sprintf "seg%d" i in
  let body =
    List.concat
      (List.mapi
         (fun i s ->
           (Asm.Label (seg_label i) :: List.map (fun x -> Asm.Instr x) s.body)
           @
           match s.branch with
           | None -> []
           | Some (bnez, r, ahead) ->
               let target = seg_label (min (n - 1) (i + ahead)) in
               [ (if bnez then Asm.Bnez_l (r, target) else Asm.Beqz_l (r, target)) ])
         segs)
  in
  [ Asm.Label "start"; Asm.Instr (Isa.Li (7, loop_n)); Asm.Label "loop" ]
  @ body
  @ [
      Asm.Instr (Isa.Addi (7, 7, -1));
      Asm.Bnez_l (7, "loop");
      Asm.Instr Isa.Halt;
    ]

let items_str items =
  String.concat "; "
    (List.map
       (function
         | Asm.Label l -> l ^ ":"
         | Asm.Instr i -> Format.asprintf "%a" Isa.pp_instr i
         | Asm.Bnez_l (r, l) -> Printf.sprintf "bnez r%d %s" r l
         | Asm.Beqz_l (r, l) -> Printf.sprintf "beqz r%d %s" r l
         | Asm.Jmp_l l -> "jmp " ^ l
         | Asm.Jal_l l -> "jal " ^ l)
       items)

let diff_case =
  QCheck.make
    ~print:(fun (prog, ci, di, mbox, flush) ->
      Printf.sprintf "icfg#%d dcfg#%d mailbox=%b flush=%b  %s" ci di mbox
        flush (items_str (items_of prog)))
    QCheck.Gen.(
      let* prog = prog_gen in
      let* ci = int_range 0 (List.length cache_cfgs - 1) in
      let* di = int_range 0 (List.length cache_cfgs - 1) in
      let* mbox = bool in
      let* flush = bool in
      return (prog, ci, di, mbox, flush))

(* Deterministic stand-in for an ASIC task: touches memory, output and
   the asic-cycle counter, so a divergence in Acall plumbing (a data
   access settled after instead of before the call, say) shows up in
   the comparison. With [flush], every third call also flushes both caches,
   as a coherence handover would. The two calls before it let the
   blocks around the acall be fetched without a miss, so the fetch
   right after the flush is one the residency epoch has recorded and
   must no longer trust. *)
let test_acall ~flush ~icache ~dcache =
  let calls = ref 0 in
  fun m k ->
    incr calls;
    if flush && !calls mod 3 = 0 then begin
      ignore (Cache.flush icache);
      ignore (Cache.flush dcache)
    end;
    Iss.write_mem m (k mod data_words) (1000 + k);
    Iss.push_output m (7000 + k);
    Iss.add_asic_cycles m (3 + k)

(* The memory system one access at a time through the event API, as a
   second oracle beside [run_stepwise] on the production hooks: every
   event is charged to memory and bus on its own, and every mailbox
   word is one single-word transaction. *)
let per_access_hooks ~icache ~dcache ~mem ~mailbox_lo ~mailbox_hi ~acall =
  let charge (e : Cache.event) =
    let moved = e.Cache.fill_words + e.Cache.writeback_words + e.Cache.through_words in
    Memory.mem_read_words mem e.Cache.fill_words;
    Memory.bus_read_words mem e.Cache.fill_words;
    Memory.mem_write_words mem (moved - e.Cache.fill_words);
    Memory.bus_write_words mem (moved - e.Cache.fill_words);
    if e.Cache.hit then 0 else Memory.miss_penalty_cycles_of mem ~words:moved
  in
  let mailbox a =
    let w = (a - Isa.data_base_byte) / 4 in
    w >= mailbox_lo && w < mailbox_hi
  in
  let data ~write a =
    if mailbox a then begin
      if write then begin
        Memory.mem_write_words mem 1;
        Memory.bus_write_words mem 1
      end
      else begin
        Memory.mem_read_words mem 1;
        Memory.bus_read_words mem 1
      end;
      Memory.miss_penalty_cycles_of mem ~words:1
    end
    else charge (if write then Cache.write dcache a else Cache.read dcache a)
  in
  Iss.word_hooks
    ~ifetch:(fun a -> charge (Cache.read icache a))
    ~dread:(data ~write:false) ~dwrite:(data ~write:true) ~acall ()

type snapshot = {
  res : Iss.result;
  mem_img : int list;
  istats : Cache.stats;
  dstats : Cache.stats;
  mtotals : Memory.totals;
  error : string option;  (** the [Runtime_error] that ended the run *)
}

type engine = Block | Stepwise | Per_access

let exec_with ?(flush = false) ?fuel ?(platform = Lp_tech.Platform.sparclite)
    prog ~icfg ~dcfg ~mailbox engine =
  let energy_scale = Lp_iss.Energy_model.core_energy_scale platform in
  let icache = Cache.create ~energy_scale icfg
  and dcache = Cache.create ~energy_scale dcfg in
  let mem =
    Lp_tech.Platform.(
      Memory.create ~first_word_latency:platform.mem_first_word_latency
        ~access_energy_j:platform.mem_access_energy_j
        ~standby_power_w:platform.mem_standby_power_w ())
  in
  let mailbox_lo, mailbox_hi = if mailbox then (8, 12) else (0, 0) in
  let acall = test_acall ~flush ~icache ~dcache in
  let hooks =
    match engine with
    | Block | Stepwise ->
        System.memory_hooks ~icache ~dcache ~mem ~mailbox_lo ~mailbox_hi ~acall
          ()
    | Per_access ->
        per_access_hooks ~icache ~dcache ~mem ~mailbox_lo ~mailbox_hi ~acall
  in
  let m = Iss.create ?fuel prog hooks in
  let error =
    match
      match engine with
      | Block -> Iss.run m
      | Stepwise | Per_access -> Iss.run_stepwise m
    with
    | () -> None
    | exception Iss.Runtime_error e -> Some e
  in
  {
    res = Iss.result m;
    mem_img = List.init (Iss.mem_size m) (Iss.read_mem m);
    istats = Cache.stats icache;
    dstats = Cache.stats dcache;
    mtotals = Memory.totals mem;
    error;
  }

(* Every field is integer-derived (energies are products of the same
   counters computed by the same code), so equality is exact — no
   tolerance. *)
let engines_agree ?flush prog ~icfg ~dcfg ~mailbox =
  let a = exec_with ?flush prog ~icfg ~dcfg ~mailbox Block in
  a = exec_with ?flush prog ~icfg ~dcfg ~mailbox Stepwise
  && a = exec_with ?flush prog ~icfg ~dcfg ~mailbox Per_access

let prop_block_equals_stepwise =
  QCheck.Test.make
    ~name:"block-compiled execution == per-instruction execution" ~count:300
    diff_case (fun (p, ci, di, mailbox, flush) ->
      let prog =
        Asm.assemble ~entry:"start" ~data_words ~symbols:[] (items_of p)
      in
      engines_agree ~flush prog ~icfg:(List.nth cache_cfgs ci)
        ~dcfg:(List.nth cache_cfgs di) ~mailbox)

(* The same law under what the block engine defers: its entry counts
   are folded in only when the counters are read, the memory system
   charges traffic and stalls only at halt, and the I-fetch is skipped
   under the residency epoch. Each case draws
   - the cache geometries and memory of one of the four platform
     presets, or two random valid geometries (1- to 4-way, write-back
     or write-through, 4- to 32-byte lines);
   - the mailbox window, and the acall that flushes both caches while
     block entries are still unfolded;
   - a fuel that runs out inside the program (and so, for the block
     engine, in its per-instruction tail), where the run stops with no
     halt: there the two production engines must agree with each other
     on everything, memory left uncharged and I-reads unsettled.
   Every integer counter must be equal, every energy within 1e-9
   relative. *)
let geometry_gen =
  QCheck.Gen.(
    let* line_bytes = map (fun k -> 4 lsl k) (int_range 0 3) in
    let* assoc = map (fun k -> 1 lsl k) (int_range 0 2) in
    let* sets = map (fun k -> 1 lsl k) (int_range 0 4) in
    let* wt = bool in
    return
      {
        Cache.size_bytes = line_bytes * assoc * sets;
        line_bytes;
        assoc;
        policy = (if wt then Cache.Write_through else Cache.Write_back);
      })

type setup = Preset of Lp_tech.Platform.t | Geoms of Cache.config * Cache.config

let setup_gen =
  QCheck.Gen.(
    frequency
      [
        (1, map (fun p -> Preset p) (oneofl Lp_tech.Platform.presets));
        (3, map2 (fun i d -> Geoms (i, d)) geometry_gen geometry_gen);
      ])

let setup_str = function
  | Preset p -> "preset " ^ p.Lp_tech.Platform.name
  | Geoms (i, d) -> Format.asprintf "geoms %a / %a" Cache.pp_config i Cache.pp_config d

let deferred_case =
  QCheck.make
    ~print:(fun (prog, setup, mbox, flush, cut) ->
      Printf.sprintf "%s mailbox=%b flush=%b cut=%d  %s" (setup_str setup) mbox
        flush cut (items_str (items_of prog)))
    QCheck.Gen.(
      let* prog = prog_gen in
      let* setup = setup_gen in
      let* mbox = bool in
      let* flush = bool in
      let* cut = int_range 0 1000 in
      return (prog, setup, mbox, flush, cut))

let close a b =
  a = b || Float.abs (a -. b) <= 1e-9 *. Float.max (Float.abs a) (Float.abs b)

let stats_agree (a : Cache.stats) (b : Cache.stats) =
  { a with Cache.energy_j = 0.0 } = { b with Cache.energy_j = 0.0 }
  && close a.Cache.energy_j b.Cache.energy_j

let snapshots_agree a b =
  { a.res with Iss.up_energy_j = 0.0 } = { b.res with Iss.up_energy_j = 0.0 }
  && close a.res.Iss.up_energy_j b.res.Iss.up_energy_j
  && a.mem_img = b.mem_img && a.error = b.error
  && stats_agree a.istats b.istats
  && stats_agree a.dstats b.dstats
  && { a.mtotals with Memory.mem_access_energy_j = 0.0; bus_energy_j = 0.0 }
     = { b.mtotals with Memory.mem_access_energy_j = 0.0; bus_energy_j = 0.0 }
  && close a.mtotals.Memory.mem_access_energy_j b.mtotals.Memory.mem_access_energy_j
  && close a.mtotals.Memory.bus_energy_j b.mtotals.Memory.bus_energy_j

let prop_deferred_accounting =
  QCheck.Test.make
    ~name:"block == stepwise: presets, random geometries, fuel cuts"
    ~count:300 deferred_case (fun (p, setup, mailbox, flush, cut) ->
      let prog =
        Asm.assemble ~entry:"start" ~data_words ~symbols:[] (items_of p)
      in
      let platform, icfg, dcfg =
        match setup with
        | Preset pl ->
            ( pl,
              Cache.config_of_geom pl.Lp_tech.Platform.icache,
              Cache.config_of_geom pl.Lp_tech.Platform.dcache )
        | Geoms (i, d) -> (Lp_tech.Platform.sparclite, i, d)
      in
      let exec ?fuel engine =
        exec_with ~flush ?fuel ~platform prog ~icfg ~dcfg ~mailbox engine
      in
      let full = exec Block in
      let n = full.res.Iss.instr_count in
      snapshots_agree full (exec Stepwise)
      && snapshots_agree full (exec Per_access)
      &&
      (* A fuel short of the program's length. *)
      let fuel = 1 + (cut mod max 1 (n - 1)) in
      let a = exec ~fuel Block in
      a.error <> None && snapshots_agree a (exec ~fuel Stepwise))

(* Two fixed programs that the residency epoch and the direct data
   accesses must get right, under every pair of cache geometries (direct-mapped
   and 2-/4-way I-caches, write-back and write-through D-caches), with
   and without the mailbox window:
   - one 42-instruction loop block, longer than the 64- and 128-byte
     caches, so each entry evicts its own first lines;
   - a loop block that ends in an acall flushing both caches between
     two of its entries, and whose accesses mix mailbox words (words
     8..11) with cached accesses on one line. *)
let long_block =
  [ Asm.Label "start"; Asm.Instr (Isa.Li (7, 4)); Asm.Label "loop" ]
  @ List.init 40 (fun i -> Asm.Instr (Isa.Addi (1 + (i mod 6), 1 + (i mod 6), i)))
  @ [ Asm.Instr (Isa.Addi (7, 7, -1)); Asm.Bnez_l (7, "loop"); Asm.Instr Isa.Halt ]

let flushed_block =
  [ Asm.Label "start"; Asm.Instr (Isa.Li (7, 7)); Asm.Label "loop" ]
  @ List.map
      (fun x -> Asm.Instr x)
      Isa.
        [
          Ld (1, 0, 2);
          St (1, 0, 9);
          Ld (2, 0, 3);
          St (2, 0, 10);
          Ld (3, 0, 9);
          Ld (4, 0, 8);
          St (3, 0, 2);
          St (4, 0, 3);
          Acall 1;
        ]
  @ [ Asm.Instr (Isa.Addi (7, 7, -1)); Asm.Bnez_l (7, "loop"); Asm.Instr Isa.Halt ]

let test_fixed_programs () =
  List.iter
    (fun (name, items, flush) ->
      let prog = Asm.assemble ~entry:"start" ~data_words ~symbols:[] items in
      List.iteri
        (fun ci icfg ->
          List.iteri
            (fun di dcfg ->
              List.iter
                (fun mailbox ->
                  if not (engines_agree ~flush prog ~icfg ~dcfg ~mailbox) then
                    Alcotest.failf "%s: engines differ (icfg#%d dcfg#%d mailbox=%b)"
                      name ci di mailbox)
                [ false; true ])
            cache_cfgs)
        cache_cfgs)
    [ ("long block", long_block, false); ("flushed block", flushed_block, true) ]

(* A block whose stores and loads are followed, inside the same block,
   by a division by zero. Block mode has charged the whole block's
   instructions and fetch at entry, but its data accesses are settled
   one by one: the D-cache must have seen exactly the accesses the
   per-instruction engine made before the fault, under every geometry. *)
let faulting_block =
  [ Asm.Label "start"; Asm.Instr (Isa.Li (7, 3)); Asm.Label "loop" ]
  @ List.map
      (fun x -> Asm.Instr x)
      Isa.
        [
          St (7, 0, 2);
          Ld (1, 0, 9);
          St (1, 0, 5);
          Addi (7, 7, -1);
          Div (2, 1, 7);
          Ld (3, 0, 12);
        ]
  @ [ Asm.Bnez_l (7, "loop"); Asm.Instr Isa.Halt ]

let test_fault_mid_block () =
  let prog = Asm.assemble ~entry:"start" ~data_words ~symbols:[] faulting_block in
  List.iter
    (fun icfg ->
      List.iter
        (fun dcfg ->
          List.iter
            (fun mailbox ->
              let a = exec_with prog ~icfg ~dcfg ~mailbox Block
              and b = exec_with prog ~icfg ~dcfg ~mailbox Stepwise in
              if a.error = None then Alcotest.fail "the program must fault";
              if
                a.error <> b.error || a.dstats <> b.dstats
                || a.mem_img <> b.mem_img
              then
                Alcotest.failf "%a / %a mailbox=%b: data side differs at the fault"
                  Cache.pp_config icfg Cache.pp_config dcfg mailbox)
            [ false; true ])
        cache_cfgs)
    cache_cfgs

(* --- memo fingerprint pins ------------------------------------------ *)

(* The initial-report cache key digests the program and the
   report-relevant config, not the engine; these pins catch any change
   that would quietly invalidate (or worse, falsely revalidate) every
   persisted initial report. Values recorded before the block engine
   landed. *)
let test_fingerprint_pins () =
  let fp p =
    Digest.to_hex (Memo.initial_fingerprint ~config:System.default_config p)
  in
  Alcotest.(check string)
    "digs16 fingerprint unchanged" "fbe1b60f277ba6c6122f420de0197ebe"
    (fp (Lp_apps.Digs.program ~width:16 ()));
  Alcotest.(check string)
    "digs fingerprint unchanged" "536a60f3c961ffe9972f4fed4b3c8414"
    (fp (Lp_apps.Digs.program ()))

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "block_iss"
    [
      ( "cache-bulk",
        qcheck [ prop_bulk_equals_singles ] );
      ( "differential",
        Alcotest.test_case "fixed programs, every geometry" `Quick
          test_fixed_programs
        :: Alcotest.test_case "fault mid-block, every geometry" `Quick
             test_fault_mid_block
        :: qcheck [ prop_block_equals_stepwise; prop_deferred_accounting ] );
      ( "fingerprints",
        [ Alcotest.test_case "memo pins" `Quick test_fingerprint_pins ] );
    ]
