(* The block-compiled ISS is the only production engine, so its
   equivalence with the per-instruction reference engine is load-bearing
   for every golden number in the repo. Three layers of defence:

   - bulk cache laws: [Cache.drain]/[Cache.read_run] must aggregate
     exactly what the per-access event API reports, including the LRU
     clock (checked indirectly: after any interleaving the twin caches
     agree on stats and on the dirty lines flushed), with refetched
     blocks, flushes and an uncached window in the traces;
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

(* Every drain in these laws uses the same uncached window: byte
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
  | Run of int * bool * int  (** same-address drain: addr, write, k *)
  | Seq of int * int  (** sequential word reads: addr, n *)
  | Fetch of int  (** a [fetch_shapes] read run *)
  | Drain of (int * bool) list  (** one drain of mixed accesses *)
  | Flush

let op_gen =
  QCheck.Gen.(
    let addr = map (fun a -> a * 4) (int_range 0 127) in
    (* Accesses clustered around a base, so drains hold same-line runs
       broken by kind changes, line changes and the uncached window. *)
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

(* Replay one bulk op as individual event-API accesses on the twin,
   returning the aggregate the bulk API must report. A missing event
   contributes all of its word traffic (fill + writeback + through) to
   the miss-stall words; that is exactly [run_miss_words]'s contract.
   Fetches are never uncached; drained accesses in the window are only
   counted. *)
let replay_singles c ~fetch ops =
  let misses = ref 0
  and fills = ref 0
  and wbs = ref 0
  and through = ref 0
  and miss_words = ref 0
  and ur = ref 0
  and uw = ref 0 in
  List.iter
    (fun (addr, write) ->
      if (not fetch) && uncached addr then incr (if write then uw else ur)
      else begin
        let e = if write then Cache.write c addr else Cache.read c addr in
        fills := !fills + e.Cache.fill_words;
        wbs := !wbs + e.Cache.writeback_words;
        through := !through + e.Cache.through_words;
        if not e.Cache.hit then begin
          incr misses;
          miss_words :=
            !miss_words + e.Cache.fill_words + e.Cache.writeback_words
            + e.Cache.through_words
        end
      end)
    ops;
  (!misses, !fills, !wbs, !through, !miss_words, !ur, !uw)

let seq a n = List.init n (fun i -> (a + (4 * i), false))

let run_aggregate (re : Cache.run_event) =
  ( re.Cache.run_misses,
    re.Cache.run_fill_words,
    re.Cache.run_writeback_words,
    re.Cache.run_through_words,
    re.Cache.run_miss_words,
    re.Cache.run_uncached_reads,
    re.Cache.run_uncached_writes )

let drain c l =
  let buf = Array.of_list (List.map (fun (a, w) -> if w then a lor 1 else a) l) in
  run_aggregate
    (Cache.drain c ~uncached_lo ~uncached_hi buf (Array.length buf))

let prop_bulk_equals_singles =
  QCheck.Test.make ~name:"bulk run APIs aggregate the event API exactly"
    ~count:300 cache_trace (fun (ci, ops) ->
      let cfg = List.nth cache_cfgs ci in
      let bulk = Cache.create cfg and twin = Cache.create cfg in
      let ok =
        List.for_all
          (fun op ->
            match op with
            | Run (a, w, k) ->
                drain bulk (List.init k (fun _ -> (a, w)))
                = replay_singles twin ~fetch:false (List.init k (fun _ -> (a, w)))
            | Drain l -> drain bulk l = replay_singles twin ~fetch:false l
            | Seq (a, n) ->
                run_aggregate (Cache.read_run bulk a n)
                = replay_singles twin ~fetch:true (seq a n)
            | Fetch i ->
                let a, n = fetch_shapes.(i) in
                run_aggregate (Cache.read_run bulk a n)
                = replay_singles twin ~fetch:true (seq a n)
            | Flush -> Cache.flush bulk = Cache.flush twin)
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
   the asic-cycle counter, so a divergence in Acall plumbing (D-buffer
   drained after instead of before the call, say) shows up in the
   comparison. With [flush], every third call also flushes both caches,
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
}

type engine = Block | Stepwise | Per_access

let exec_with ?(flush = false) prog ~icfg ~dcfg ~mailbox engine =
  let icache = Cache.create icfg and dcache = Cache.create dcfg in
  let mem = Memory.create () in
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
  let m = Iss.create prog hooks in
  (match engine with Block -> Iss.run m | Stepwise | Per_access -> Iss.run_stepwise m);
  {
    res = Iss.result m;
    mem_img = List.init (Iss.mem_size m) (Iss.read_mem m);
    istats = Cache.stats icache;
    dstats = Cache.stats dcache;
    mtotals = Memory.totals mem;
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

(* Two fixed programs that the residency epoch and the one-call drain
   must get right, under every pair of cache geometries (direct-mapped
   and 2-/4-way I-caches, write-back and write-through D-caches), with
   and without the mailbox window:
   - one 42-instruction loop block, longer than the 64- and 128-byte
     caches, so each entry evicts its own first lines;
   - a loop block that ends in an acall flushing both caches between
     two of its entries, and whose drain mixes mailbox words (words
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
        :: qcheck [ prop_block_equals_stepwise ] );
      ( "fingerprints",
        [ Alcotest.test_case "memo pins" `Quick test_fingerprint_pins ] );
    ]
