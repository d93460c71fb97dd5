open Lp_ir.Ast
module Cache = Lp_cache.Cache
module Memory = Lp_mem.Memory
module Compiler = Lp_compiler.Compiler
module Isa = Lp_isa.Isa
module Iss = Lp_iss.Iss
module Cmos6 = Lp_tech.Cmos6
module Platform = Lp_tech.Platform

type config = {
  icache : Cache.config;
  dcache : Cache.config;
  fuel : int;
  buffer_capacity_words : int;
  asic_word_cycles : int;
  peephole : bool;
  platform : Platform.t;
}

let default_config =
  {
    icache = Cache.default_icache;
    dcache = Cache.default_dcache;
    fuel = 500_000_000;
    buffer_capacity_words = 2048;
    asic_word_cycles = 12;
    peephole = false;
    platform = Platform.sparclite;
  }

(* A config for a named platform: its cache geometries plus its core
   and memory parameters. The separate [icache]/[dcache] fields remain
   the authority on geometry — an explicit cache override (CLI flag,
   protocol field, explore axis) refines the platform's geometry by
   updating them after this call. *)
let config_of_platform ?(base = default_config) (p : Platform.t) =
  {
    base with
    platform = p;
    icache = Cache.config_of_geom p.Platform.icache;
    dcache = Cache.config_of_geom p.Platform.dcache;
  }

type asic_task = {
  acall_id : int;
  stmts : stmt list;
  use_scalars : string list;
  gen_scalars : string list;
  private_arrays : string list;
  buffer_in_arrays : (string * int) list;
  buffer_out_arrays : (string * int) list;
  stream_arrays : string list;
  power_w : float;
  clock_scale : float;
  seg_lengths : (int * int) list;
}

type report = {
  outputs : int list;
  up_cycles : int;
  stall_cycles : int;
  asic_cycles : int;
  instr_count : int;
  icache_j : float;
  dcache_j : float;
  mem_j : float;
  bus_j : float;
  up_j : float;
  asic_j : float;
  icache_stats : Cache.stats;
  dcache_stats : Cache.stats;
  mem_totals : Memory.totals;
  asic_invocations : int;
  class_counts : (Lp_isa.Isa.opclass * int) list;
}

let total_energy_j r =
  r.icache_j +. r.dcache_j +. r.mem_j +. r.bus_j +. r.up_j +. r.asic_j

let total_cycles r = r.up_cycles + r.stall_cycles + r.asic_cycles

let runtime_s ?(platform = Platform.sparclite) r =
  float_of_int (total_cycles r) *. Platform.clock_period_s platform

let mailbox_name = "$mailbox"

(* Everything about an ASIC invocation that depends only on the program,
   the layout and the task — mailbox geometry, the marshalling
   prelude/epilogue, the mini program handed to the interpreter, the
   burst word counts — is computed once per task in [prepare_task]. The
   seed rebuilt all of it (including fresh array images and repeated
   [List.assoc] walks over the layout) on every single acall. *)
type prepared = {
  ptask : asic_task;
  p_mailbox_base : int;
  p_n_slots : int;
  p_n_gen : int;
  p_burst_in : int;  (** words bursted in per invocation *)
  p_burst_out : int;
  p_mini : program;
      (** constant skeleton; its array [init] images alias [p_scratch] *)
  p_scratch : (int * int array) list;
      (** (shared-memory word base, buffer) per array the task names; refilled
          from machine memory before each run — {!Lp_ir.Interp.run}
          copies [init] images, so reuse is safe *)
  p_mailbox_img : int array;
  p_stream : (string, unit) Hashtbl.t;  (** membership set of stream arrays *)
  p_array_base : (string, int) Hashtbl.t;  (** shared name -> word base *)
}

(* The arrays a task's statements name. A task makes no calls
   ([Cluster.asic_candidate]), so it can reach no other array: the rest
   need not be copied in and out around every invocation. *)
let task_arrays stmts =
  let names = Hashtbl.create 8 in
  let name a = Hashtbl.replace names a () in
  let expr e = List.iter name (expr_arrays e) in
  iter_stmts
    (fun s ->
      match s.node with
      | Assign (_, e) | Print e | Expr e | Return (Some e) -> expr e
      | Store (a, i, v) -> name a; expr i; expr v
      | If (c, _, _) | While (c, _) -> expr c
      | For (_, lo, hi, _) -> expr lo; expr hi
      | Return None -> ())
    stmts;
  names

let prepare_task (p : program) (layout : Compiler.layout) array_base task =
  let mailbox_slots = List.assoc task.acall_id layout.Compiler.mailbox_slots in
  let mailbox_base =
    List.fold_left
      (fun acc (_, a) -> min acc a)
      max_int
      (("", max_int) :: mailbox_slots)
  in
  let n_slots = List.length mailbox_slots in
  let named = task_arrays task.stmts in
  let used = List.filter (fun a -> Hashtbl.mem named a.aname) p.arrays in
  let scratch =
    List.map (fun a -> (Hashtbl.find array_base a.aname, Array.make a.size 0)) used
  in
  let arrays =
    List.map2
      (fun a (_, buf) -> { aname = a.aname; size = a.size; init = Some buf })
      used scratch
  in
  let mailbox_img = Array.make (max n_slots 1) 0 in
  let arrays =
    arrays
    @ [ { aname = mailbox_name; size = max n_slots 1; init = Some mailbox_img } ]
  in
  (* Prelude/epilogue marshal the scalars; their sid -1 keeps them out
     of the profile. *)
  let slot v =
    match List.assoc_opt v mailbox_slots with
    | Some addr -> addr - mailbox_base
    | None -> invalid_arg ("System: no mailbox slot for " ^ v)
  in
  (* Every mailbox scalar is loaded, not only the uses: gen is
     may-write, and an unwritten scalar must round-trip unchanged. *)
  let prelude =
    List.map
      (fun (v, _) ->
        { sid = -1; node = Assign (v, Load (mailbox_name, Int (slot v))) })
      mailbox_slots
  in
  let epilogue =
    List.map
      (fun v ->
        { sid = -1; node = Store (mailbox_name, Int (slot v), Var v) })
      task.gen_scalars
  in
  let scalars = List.map fst mailbox_slots in
  let mini =
    {
      arrays;
      funcs =
        [
          {
            fname = "$asic";
            params = [];
            locals = scalars;
            body = prelude @ task.stmts @ epilogue;
          };
        ];
      entry = "$asic";
    }
  in
  let stream = Hashtbl.create 8 in
  List.iter (fun a -> Hashtbl.replace stream a ()) task.stream_arrays;
  {
    ptask = task;
    p_mailbox_base = mailbox_base;
    p_n_slots = n_slots;
    p_n_gen = List.length task.gen_scalars;
    p_burst_in =
      List.fold_left (fun acc (_, n) -> acc + n) 0 task.buffer_in_arrays;
    p_burst_out =
      List.fold_left (fun acc (_, n) -> acc + n) 0 task.buffer_out_arrays;
    p_mini = mini;
    p_scratch = scratch;
    p_mailbox_img = mailbox_img;
    p_stream = stream;
    p_array_base = array_base;
  }

(* Execute one ASIC invocation functionally: interpret the cluster body
   against the current shared memory, with scalars passed through the
   mailbox array. Refills the prepared scratch images from shared memory
   (block reads: one bounds check per array) and writes the interpreter
   results back. *)
let run_asic_cluster prep machine =
  List.iter
    (fun (base, buf) -> Iss.read_mem_block machine base buf)
    prep.p_scratch;
  let mb = prep.p_mailbox_img in
  for i = 0 to prep.p_n_slots - 1 do
    mb.(i) <- Iss.read_mem machine (prep.p_mailbox_base + i)
  done;
  if prep.p_n_slots = 0 then mb.(0) <- 0;
  let result = Lp_ir.Interp.run prep.p_mini in
  (* Write results back to shared memory. *)
  List.iter
    (fun (name, img) ->
      if name = mailbox_name then
        for i = 0 to prep.p_n_slots - 1 do
          Iss.write_mem machine (prep.p_mailbox_base + i) img.(i)
        done
      else
        Iss.write_mem_block machine
          (Hashtbl.find prep.p_array_base name)
          img)
    result.Lp_ir.Interp.final_arrays;
  List.iter (fun v -> Iss.push_output machine v) result.Lp_ir.Interp.outputs;
  result

type accounting = {
  mutable asic_energy : float;
  mutable asic_invocations : int;
}

(* The uP-side memory system as ISS hooks. A block's fetch is one
   [Cache.fetch] call, skipped by the ISS while the I-cache's residency
   epoch says it would change nothing; every load and store is one call
   into the D-cache's port, which counts the uncached mailbox words
   itself. Nothing is charged per call: at halt, [settle] counts one
   I-cache read per executed instruction and charges memory, bus and
   stall cycles once from the caches' cumulative [Cache.traffic]. That
   is exact: word counts add up, the miss penalty is linear in misses
   and words ([Memory.miss_penalty_run_of]), every mailbox word is one
   single-word transaction at a fixed penalty, and nothing reads these
   charges while the run is in progress (the acall handshake charges
   the words of its own flush, which [traffic] leaves out). The caches
   must be fresh: [settle] charges everything they have seen.

   Exposed (with the mailbox window defaulting to empty) so the
   differential tests can wire the production memory system to both the
   block engine and the per-instruction reference engine. *)
let memory_hooks ~icache ~dcache ~mem ?(mailbox_lo = 0) ?(mailbox_hi = 0)
    ~acall () =
  (* The mailbox window in byte addresses (data addresses are
     word-aligned). *)
  let uncached_lo = Isa.data_base_byte + (4 * mailbox_lo) in
  let uncached_hi = Isa.data_base_byte + (4 * mailbox_hi) in
  let dread, dwrite = Cache.data_port dcache ~uncached_lo ~uncached_hi in
  let word_penalty = Memory.miss_penalty_cycles_of mem ~words:1 in
  let charge c =
    let tr = Cache.traffic c in
    let rd = tr.Cache.fill_words + tr.Cache.uncached_reads in
    let wr =
      tr.Cache.evict_words + tr.Cache.through_words + tr.Cache.uncached_writes
    in
    Memory.mem_read_words mem rd;
    Memory.bus_read_words mem rd;
    Memory.mem_write_words mem wr;
    Memory.bus_write_words mem wr;
    Memory.miss_penalty_run_of mem ~misses:tr.Cache.misses
      ~words:tr.Cache.miss_words
    + ((tr.Cache.uncached_reads + tr.Cache.uncached_writes) * word_penalty)
  in
  let settle instrs =
    Cache.count_reads icache instrs;
    let st = charge icache in
    st + charge dcache
  in
  {
    Iss.ifetch = Cache.fetch icache;
    iepoch = Cache.epoch icache;
    dread;
    dwrite;
    acall;
    settle;
  }

type sim = {
  machine : Iss.t;
  icache : Cache.t;
  dcache : Cache.t;
  mem : Memory.t;
  acc : accounting;
  energy_scale : float;
  clock_period_s : float;
}

let prepare ?(config = default_config) ?(tasks = []) (p : program) =
  let stubs =
    List.map
      (fun t ->
        {
          Compiler.acall_id = t.acall_id;
          top_sids = List.map (fun s -> s.sid) t.stmts;
          use_scalars = t.use_scalars;
          gen_scalars = t.gen_scalars;
        })
      tasks
  in
  let prog, layout = Compiler.compile ~stubs ~peephole:config.peephole p in
  let platform = config.platform in
  let clock_period_s = Platform.clock_period_s platform in
  (* Core (and SRAM) dynamic energy scales as Vdd^2 relative to the
     nominal supply the instruction-level model was characterised at;
     exactly 1.0 at sparclite, where every product below is
     bit-identical to the pre-platform code. *)
  let energy_scale = Lp_iss.Energy_model.core_energy_scale platform in
  let icache = Cache.create ~energy_scale config.icache in
  let dcache = Cache.create ~energy_scale config.dcache in
  let mem =
    Memory.create
      ~first_word_latency:platform.Platform.mem_first_word_latency
      ~access_energy_j:platform.Platform.mem_access_energy_j
      ~standby_power_w:platform.Platform.mem_standby_power_w ()
  in
  let acc = { asic_energy = 0.0; asic_invocations = 0 } in
  (* Word-address window of the uncached mailbox region. *)
  let mailbox_lo = layout.Compiler.mailbox_base in
  let mailbox_hi = layout.Compiler.stack_top - Compiler.stack_words in
  (* Per-task invariants (mailbox geometry, mini program, scratch
     images, burst counts) are prepared once; acall dispatch is a
     hashtable probe instead of the seed's [List.find_opt] +
     [List.assoc] walks per invocation. *)
  let array_base = Hashtbl.create 16 in
  List.iter
    (fun (name, base) -> Hashtbl.replace array_base name base)
    layout.Compiler.array_bases;
  let prepared = Hashtbl.create 8 in
  List.iter
    (fun t ->
      Hashtbl.replace prepared t.acall_id (prepare_task p layout array_base t))
    tasks;
  let prep_of_id k =
    match Hashtbl.find_opt prepared k with
    | Some prep -> prep
    | None -> raise (Iss.Runtime_error (Printf.sprintf "unknown acall %d" k))
  in
  let acall machine k =
    let prep = prep_of_id k in
    let task = prep.ptask in
    acc.asic_invocations <- acc.asic_invocations + 1;
    (* Coherence: push dirty uP lines to memory before the ASIC reads
       it, and invalidate so the uP re-reads what the ASIC wrote. *)
    let wb = Cache.flush dcache in
    Memory.mem_write_words mem wb;
    Memory.bus_write_words mem wb;
    let handshake_cycles = Memory.miss_penalty_cycles_of mem ~words:wb in
    let result = run_asic_cluster prep machine in
    (* Execution cycles: schedule length times profiled iterations,
       scaled by the core's clock ratio (an FSM core clocks at its
       slowest functional unit). *)
    let exec_cycles =
      List.fold_left
        (fun cyc (anchor, len) ->
          cyc + (len * Lp_ir.Interp.ex_times result anchor))
        0 task.seg_lengths
    in
    let exec_cycles =
      int_of_float (Float.ceil (float_of_int exec_cycles *. task.clock_scale))
    in
    (* Burst copies: small shared arrays move through the local buffer
       once per invocation, page-mode (one word per cycle + startup). *)
    let burst_in = prep.p_burst_in in
    let burst_out = prep.p_burst_out in
    Memory.mem_read_words mem burst_in;
    Memory.bus_read_words mem burst_in;
    Memory.mem_write_words mem burst_out;
    Memory.bus_write_words mem burst_out;
    let burst_cycles =
      (if burst_in > 0 then burst_in + 8 else 0)
      + if burst_out > 0 then burst_out + 8 else 0
    in
    (* Oversized shared arrays stream word by word at their dynamic
       access counts; private arrays live entirely in the local buffer
       (their traffic is covered by the memory-port power). *)
    let stream_words get =
      List.fold_left
        (fun acc (a, n) ->
          if Hashtbl.mem prep.p_stream a then acc + n else acc)
        0 (get result)
    in
    let stream_in = stream_words (fun r -> r.Lp_ir.Interp.array_reads) in
    let stream_out = stream_words (fun r -> r.Lp_ir.Interp.array_writes) in
    Memory.mem_read_words mem stream_in;
    Memory.bus_read_words mem stream_in;
    Memory.mem_write_words mem stream_out;
    Memory.bus_write_words mem stream_out;
    (* Mailbox handover on the ASIC side: every slot word is read (gen
       scalars must round-trip), the gen words are written back. *)
    let n_use = prep.p_n_slots in
    let n_gen = prep.p_n_gen in
    Memory.mem_read_words mem n_use;
    Memory.bus_read_words mem n_use;
    Memory.mem_write_words mem n_gen;
    Memory.bus_write_words mem n_gen;
    (* Streamed and mailbox words are single-word non-burst bus
       transactions: arbitration + non-page DRAM + coherence, every
       word. *)
    let word_cost = config.asic_word_cycles in
    let total_cycles =
      handshake_cycles + exec_cycles + burst_cycles
      + (word_cost * (stream_in + stream_out + n_use + n_gen))
    in
    Iss.add_asic_cycles machine total_cycles;
    acc.asic_energy <-
      acc.asic_energy
      +. (task.power_w *. float_of_int total_cycles *. clock_period_s)
  in
  let hooks = memory_hooks ~icache ~dcache ~mem ~mailbox_lo ~mailbox_hi ~acall () in
  let machine = Iss.create ~fuel:config.fuel prog hooks in
  List.iter
    (fun (base, img) -> Iss.load_data machine base img)
    (Compiler.initial_data p layout);
  { machine; icache; dcache; mem; acc; energy_scale; clock_period_s }

let machine s = s.machine

let finish { machine; icache; dcache; mem; acc; energy_scale; clock_period_s } =
  Iss.run machine;
  let r = Iss.result machine in
  let mem_totals = Memory.totals mem in
  let run_s =
    float_of_int (r.Iss.up_cycles + r.Iss.stall_cycles + r.Iss.asic_cycles)
    *. clock_period_s
  in
  {
    outputs = r.Iss.outputs;
    up_cycles = r.Iss.up_cycles;
    stall_cycles = r.Iss.stall_cycles;
    asic_cycles = r.Iss.asic_cycles;
    instr_count = r.Iss.instr_count;
    icache_j = (Cache.stats icache).Cache.energy_j;
    dcache_j = (Cache.stats dcache).Cache.energy_j;
    mem_j =
      mem_totals.Memory.mem_access_energy_j
      +. Memory.standby_energy_of mem ~runtime_s:run_s;
    bus_j = mem_totals.Memory.bus_energy_j;
    up_j = r.Iss.up_energy_j *. energy_scale;
    asic_j = acc.asic_energy;
    icache_stats = Cache.stats icache;
    dcache_stats = Cache.stats dcache;
    mem_totals;
    asic_invocations = acc.asic_invocations;
    class_counts = r.Iss.class_counts;
  }

let run ?config ?tasks p = finish (prepare ?config ?tasks p)

let pp_report ppf r =
  let u = Lp_tech.Units.pp_energy in
  Format.fprintf ppf
    "@[<v>i-cache %a | d-cache %a | mem %a | bus %a | uP %a | ASIC %a | \
     total %a@,\
     cycles: uP %d + stall %d + ASIC %d = %d (%d instrs, %d acalls)@]" u
    r.icache_j u r.dcache_j u r.mem_j u r.bus_j u r.up_j u r.asic_j u
    (total_energy_j r) r.up_cycles r.stall_cycles r.asic_cycles
    (total_cycles r) r.instr_count r.asic_invocations
