(* Basic-block superop engine: the machine state, the lazy block
   decoder, the direct-threaded dispatcher, and the per-instruction
   reference interpreter it must stay exactly equivalent to.

   At [create] nothing is decoded. The first time control reaches a pc,
   the straight-line region from that pc to the next control-transfer
   instruction is compiled into a {e superop}: a chain of closures (one
   per instruction, each tail-calling the next) plus pre-aggregated
   accounting — total base cycles, per-opclass execution counts, and
   intra-block class-transition count. Executing the block then costs a
   handful of integer field updates, one bulk I-cache call for the whole
   fetch run (one tag probe per cache line instead of per instruction),
   and the closure chain for the architectural effects. Data accesses
   are not performed against the cache one by one either: each Ld/St
   pushes a packed (byte address | write bit) int into the machine's
   access buffer, and the buffer is drained through the bulk
   [daccess_run] hook exactly once per block, at the exit closure —
   before any branch, acall, or halt takes effect.

   Any pc is a valid block leader, and blocks may overlap (a branch
   into the middle of an already-decoded block simply decodes a second,
   shorter view of the same instructions), so dynamic [Jr] targets need
   no special casing.

   Equivalence with the per-instruction engine ([step]/[run_stepwise])
   is exact on every integer counter: cycles and class counts are sums
   over the same instructions; the I-cache still counts one read per
   instruction (bulk runs account k reads for a k-word fetch); the
   D-cache sees the same access stream in the same order because the
   instruction and data streams hit different caches and each stream's
   internal order is preserved. Energy totals differ only in float
   summation order (k accesses charged as [k *. e] instead of k
   additions of [e]), well within the 1e-9 relative tolerance the
   differential goldens allow. *)

module Isa = Lp_isa.Isa
module Word = Lp_ir.Word

exception Runtime_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

type t = {
  code : Isa.instr array;
  code_len : int;
  cls_of_pc : int array;  (** opclass tag of each static instruction *)
  cyc_of_pc : int array;  (** base cycle cost of each static instruction *)
  regs : int array;
  mem : int array;
  mutable pc : int;
  mutable halted : bool;
  mutable fuel : int;
  mutable out : int list;
  mutable instr_count : int;
  mutable up_cycles : int;
  mutable stall_cycles : int;
  mutable asic_cycles : int;
  mutable taken_branches : int;
  mutable class_transitions : int;
  mutable last_tag : int;  (** -1 before the first instruction *)
  class_counts : int array;  (** indexed by opclass tag *)
  hooks : hooks;
  blocks : block option array;  (** lazily decoded, indexed by leader pc *)
  dbuf : int array;  (** pending D-accesses: [byte_addr lor write_bit] *)
  mutable dbuf_len : int;
  mutable blocks_decoded : int;
  mutable block_entries : int;
}

and hooks = {
  ifetch_run : int -> int -> int;
      (** [ifetch_run byte_addr n]: fetch of [n] sequential instruction
          words starting at [byte_addr]; returns total stall cycles. *)
  daccess_run : int array -> int -> int;
      (** [daccess_run buf n]: the first [n] entries of [buf] are data
          accesses in program order, each packed as
          [byte_addr lor write_bit] (addresses are word-aligned, so bit
          0 is free); returns total stall cycles. *)
  acall : t -> int -> unit;
}

and block = {
  b_pc : int;  (** leader pc *)
  b_len : int;  (** instructions in the block *)
  b_cycles : int;  (** sum of base cycle costs *)
  b_first_tag : int;  (** opclass tag of the leader *)
  b_last_tag : int;  (** opclass tag of the last instruction *)
  b_intra : int;  (** class transitions inside the block *)
  b_cls : int array;  (** flattened (tag, count) pairs, counts > 0 *)
  b_ops : t -> int;  (** execute; returns the next pc *)
}

let null_hooks =
  {
    ifetch_run = (fun _ _ -> 0);
    daccess_run = (fun _ _ -> 0);
    acall = (fun _ _ -> fail "acall with null hooks");
  }

let create ?(fuel = 500_000_000) (prog : Isa.program) hooks =
  let n = Array.length prog.Isa.code in
  let cls_of_pc = Array.make n 0 in
  let cyc_of_pc = Array.make n 0 in
  Array.iteri
    (fun i instr ->
      let cls = Isa.opclass instr in
      cls_of_pc.(i) <- Isa.opclass_tag cls;
      cyc_of_pc.(i) <- Energy_model.base_cycles cls)
    prog.Isa.code;
  {
    code = prog.Isa.code;
    code_len = n;
    cls_of_pc;
    cyc_of_pc;
    regs = Array.make Isa.reg_count 0;
    mem = Array.make prog.Isa.data_words 0;
    pc = prog.Isa.entry_pc;
    halted = false;
    fuel;
    out = [];
    instr_count = 0;
    up_cycles = 0;
    stall_cycles = 0;
    asic_cycles = 0;
    taken_branches = 0;
    class_transitions = 0;
    last_tag = -1;
    class_counts = Array.make Isa.opclass_count 0;
    hooks;
    blocks = Array.make (max n 1) None;
    (* a block performs at most one D-access per instruction, and the
       stepwise engine uses slot 0 for its single-access runs *)
    dbuf = Array.make (n + 1) 0;
    dbuf_len = 0;
    blocks_decoded = 0;
    block_entries = 0;
  }

let load_data t base img =
  if base < 0 || base + Array.length img > Array.length t.mem then
    fail "load_data out of range";
  Array.blit img 0 t.mem base (Array.length img)

let read_mem t a =
  if a < 0 || a >= Array.length t.mem then fail "read at bad address %d" a;
  t.mem.(a)

let write_mem t a v =
  if a < 0 || a >= Array.length t.mem then fail "write at bad address %d" a;
  t.mem.(a) <- Word.norm v

(* Block transfers for the system simulator's ASIC model: one bounds
   check per block instead of one per word. *)
let read_mem_block t base dst =
  let n = Array.length dst in
  if base < 0 || base + n > Array.length t.mem then
    fail "block read out of range at %d (+%d)" base n;
  Array.blit t.mem base dst 0 n

let write_mem_block t base src =
  let n = Array.length src in
  if base < 0 || base + n > Array.length t.mem then
    fail "block write out of range at %d (+%d)" base n;
  for i = 0 to n - 1 do
    t.mem.(base + i) <- Word.norm src.(i)
  done

let mem_size t = Array.length t.mem

let push_output t v = t.out <- v :: t.out

let add_asic_cycles t c = t.asic_cycles <- t.asic_cycles + c

let block_stats t = (t.blocks_decoded, t.block_entries)

let data_byte_addr word_addr = Isa.data_base_byte + (word_addr * 4)

let flush_daccesses t =
  let n = t.dbuf_len in
  if n > 0 then begin
    t.dbuf_len <- 0;
    let st = t.hooks.daccess_run t.dbuf n in
    if st <> 0 then t.stall_cycles <- t.stall_cycles + st
  end

(* --- the per-instruction reference engine --------------------------- *)

let get t r = if r = Isa.zero_reg then 0 else t.regs.(r)

let set t r v = if r <> Isa.zero_reg then t.regs.(r) <- Word.norm v

let stall t cycles = t.stall_cycles <- t.stall_cycles + cycles

let taken_branch t =
  t.up_cycles <- t.up_cycles + Energy_model.taken_branch_cycles;
  t.taken_branches <- t.taken_branches + 1

let eval_cmp c a b =
  match (c : Isa.cmp) with
  | Isa.Clt -> a < b
  | Isa.Cle -> a <= b
  | Isa.Cgt -> a > b
  | Isa.Cge -> a >= b
  | Isa.Ceq -> a = b
  | Isa.Cne -> a <> b

let dload t a =
  if a < 0 || a >= Array.length t.mem then fail "read at bad address %d" a;
  t.dbuf.(0) <- data_byte_addr a;
  stall t (t.hooks.daccess_run t.dbuf 1);
  Array.unsafe_get t.mem a

let dstore t a v =
  if a < 0 || a >= Array.length t.mem then fail "write at bad address %d" a;
  t.dbuf.(0) <- data_byte_addr a lor 1;
  stall t (t.hooks.daccess_run t.dbuf 1);
  Array.unsafe_set t.mem a (Word.norm v)

let step t =
  if t.fuel <= 0 then fail "instruction fuel exhausted at pc %d" t.pc;
  t.fuel <- t.fuel - 1;
  let pc = t.pc in
  if pc < 0 || pc >= t.code_len then fail "pc %d out of code range" pc;
  stall t (t.hooks.ifetch_run (pc * 4) 1);
  let i = Array.unsafe_get t.code pc in
  t.instr_count <- t.instr_count + 1;
  t.up_cycles <- t.up_cycles + Array.unsafe_get t.cyc_of_pc pc;
  let tag = Array.unsafe_get t.cls_of_pc pc in
  if t.last_tag >= 0 && t.last_tag <> tag then
    t.class_transitions <- t.class_transitions + 1;
  t.last_tag <- tag;
  t.class_counts.(tag) <- t.class_counts.(tag) + 1;
  let next = pc + 1 in
  (match i with
  | Isa.Add (d, a, b) -> set t d (Word.add (get t a) (get t b))
  | Isa.Addi (d, a, n) -> set t d (Word.add (get t a) n)
  | Isa.Sub (d, a, b) -> set t d (Word.sub (get t a) (get t b))
  | Isa.Mul (d, a, b) -> set t d (Word.mul (get t a) (get t b))
  | Isa.Div (d, a, b) ->
      let bv = get t b in
      if bv = 0 then fail "division by zero at pc %d" pc;
      set t d (Word.div (get t a) bv)
  | Isa.Rem (d, a, b) ->
      let bv = get t b in
      if bv = 0 then fail "modulo by zero at pc %d" pc;
      set t d (Word.rem (get t a) bv)
  | Isa.And (d, a, b) -> set t d (Word.logand (get t a) (get t b))
  | Isa.Or (d, a, b) -> set t d (Word.logor (get t a) (get t b))
  | Isa.Xor (d, a, b) -> set t d (Word.logxor (get t a) (get t b))
  | Isa.Andi (d, a, n) -> set t d (Word.logand (get t a) n)
  | Isa.Ori (d, a, n) -> set t d (Word.logor (get t a) n)
  | Isa.Xori (d, a, n) -> set t d (Word.logxor (get t a) n)
  | Isa.Sll (d, a, b) -> set t d (Word.shl (get t a) (get t b))
  | Isa.Sra (d, a, b) -> set t d (Word.shr (get t a) (get t b))
  | Isa.Srl (d, a, b) -> set t d (Word.lshr (get t a) (get t b))
  | Isa.Slli (d, a, n) -> set t d (Word.shl (get t a) n)
  | Isa.Srai (d, a, n) -> set t d (Word.shr (get t a) n)
  | Isa.Srli (d, a, n) -> set t d (Word.lshr (get t a) n)
  | Isa.Set (c, d, a, b) ->
      set t d (Word.of_bool (eval_cmp c (get t a) (get t b)))
  | Isa.Li (d, n) -> set t d n
  | Isa.Mov (d, a) -> set t d (get t a)
  | Isa.Ld (d, a, off) -> set t d (dload t (get t a + off))
  | Isa.St (v, a, off) -> dstore t (get t a + off) (get t v)
  | Isa.Bnez (r, target) ->
      if get t r <> 0 then begin
        taken_branch t;
        t.pc <- target
      end
      else t.pc <- next
  | Isa.Beqz (r, target) ->
      if get t r = 0 then begin
        taken_branch t;
        t.pc <- target
      end
      else t.pc <- next
  | Isa.Jmp target -> t.pc <- target
  | Isa.Jal target ->
      set t Isa.ra_reg next;
      t.pc <- target
  | Isa.Jr r -> t.pc <- get t r
  | Isa.Print r -> t.out <- get t r :: t.out
  | Isa.Acall k -> t.hooks.acall t k
  | Isa.Halt -> t.halted <- true
  | Isa.Nop -> ());
  match i with
  | Isa.Bnez _ | Isa.Beqz _ | Isa.Jmp _ | Isa.Jal _ | Isa.Jr _ -> ()
  | Isa.Halt -> ()
  | _ -> t.pc <- next

let run_stepwise t =
  while not t.halted do
    step t
  done

(* --- block compilation ---------------------------------------------- *)

let is_terminator = function
  | Isa.Bnez _ | Isa.Beqz _ | Isa.Jmp _ | Isa.Jal _ | Isa.Jr _
  | Isa.Acall _ | Isa.Halt ->
      true
  | _ -> false

let vr r =
  if r < 0 || r >= Isa.reg_count then
    invalid_arg "Iss: register index out of range"
  else r

(* [Lp_ir.Word.norm], repeated here so that it inlines into every
   superop closure below: a build that compiles modules separately
   ([-opaque], as dune's dev profile does) cannot inline a call into
   [Word], and that call cost about a fifth of an instruction's time.
   The arithmetic closures spell out [Word]'s definitions on top of it;
   the per-instruction engine above still calls [Word], and the
   block-vs-stepwise differential test holds the two equal. *)
let[@inline] w32 x = ((x land 0xFFFFFFFF) lxor 0x80000000) - 0x80000000

(* Compile one straight-line instruction at [pc] into a closure that
   performs its architectural effect and tail-calls [next]. Register
   indices are validated here, once, so the closures use unsafe array
   accesses; writes to r0 are dropped at compile time, which keeps
   [regs.(0) = 0] an invariant and lets reads skip the zero-register
   check. Per-instruction *accounting* (cycles, classes, fetch) is not
   here — it is aggregated per block. *)
let chain_op t pc instr (next : t -> int) : t -> int =
  let regs = t.regs in
  let mem = t.mem in
  let dbuf = t.dbuf in
  let ml = Array.length t.mem in
  match instr with
  | Isa.Add (d, a, b) ->
      let d = vr d and a = vr a and b = vr b in
      if d = 0 then next
      else fun t -> Array.unsafe_set regs d (w32 (Array.unsafe_get regs a + Array.unsafe_get regs b)); next t
  | Isa.Addi (d, a, n) ->
      let d = vr d and a = vr a in
      if d = 0 then next
      else fun t -> Array.unsafe_set regs d (w32 (Array.unsafe_get regs a + n)); next t
  | Isa.Sub (d, a, b) ->
      let d = vr d and a = vr a and b = vr b in
      if d = 0 then next
      else fun t -> Array.unsafe_set regs d (w32 (Array.unsafe_get regs a - Array.unsafe_get regs b)); next t
  | Isa.Mul (d, a, b) ->
      let d = vr d and a = vr a and b = vr b in
      if d = 0 then next
      else fun t -> Array.unsafe_set regs d (w32 (Array.unsafe_get regs a * Array.unsafe_get regs b)); next t
  | Isa.Div (d, a, b) ->
      let d = vr d and a = vr a and b = vr b in
      if d = 0 then (fun t ->
        if Array.unsafe_get regs b = 0 then fail "division by zero at pc %d" pc;
        next t)
      else
        fun t ->
          let bv = Array.unsafe_get regs b in
          if bv = 0 then fail "division by zero at pc %d" pc;
          Array.unsafe_set regs d (Word.div (Array.unsafe_get regs a) bv);
          next t
  | Isa.Rem (d, a, b) ->
      let d = vr d and a = vr a and b = vr b in
      if d = 0 then (fun t ->
        if Array.unsafe_get regs b = 0 then fail "modulo by zero at pc %d" pc;
        next t)
      else
        fun t ->
          let bv = Array.unsafe_get regs b in
          if bv = 0 then fail "modulo by zero at pc %d" pc;
          Array.unsafe_set regs d (Word.rem (Array.unsafe_get regs a) bv);
          next t
  | Isa.And (d, a, b) ->
      let d = vr d and a = vr a and b = vr b in
      if d = 0 then next
      else fun t -> Array.unsafe_set regs d (w32 (Array.unsafe_get regs a land Array.unsafe_get regs b)); next t
  | Isa.Or (d, a, b) ->
      let d = vr d and a = vr a and b = vr b in
      if d = 0 then next
      else fun t -> Array.unsafe_set regs d (w32 (Array.unsafe_get regs a lor Array.unsafe_get regs b)); next t
  | Isa.Xor (d, a, b) ->
      let d = vr d and a = vr a and b = vr b in
      if d = 0 then next
      else fun t -> Array.unsafe_set regs d (w32 (Array.unsafe_get regs a lxor Array.unsafe_get regs b)); next t
  | Isa.Andi (d, a, n) ->
      let d = vr d and a = vr a in
      if d = 0 then next
      else fun t -> Array.unsafe_set regs d (w32 (Array.unsafe_get regs a land n)); next t
  | Isa.Ori (d, a, n) ->
      let d = vr d and a = vr a in
      if d = 0 then next
      else fun t -> Array.unsafe_set regs d (w32 (Array.unsafe_get regs a lor n)); next t
  | Isa.Xori (d, a, n) ->
      let d = vr d and a = vr a in
      if d = 0 then next
      else fun t -> Array.unsafe_set regs d (w32 (Array.unsafe_get regs a lxor n)); next t
  | Isa.Sll (d, a, b) ->
      let d = vr d and a = vr a and b = vr b in
      if d = 0 then next
      else fun t -> Array.unsafe_set regs d (w32 ((Array.unsafe_get regs a land 0xFFFFFFFF) lsl (Array.unsafe_get regs b land 31))); next t
  | Isa.Sra (d, a, b) ->
      let d = vr d and a = vr a and b = vr b in
      if d = 0 then next
      else fun t -> Array.unsafe_set regs d (w32 (w32 (Array.unsafe_get regs a) asr (Array.unsafe_get regs b land 31))); next t
  | Isa.Srl (d, a, b) ->
      let d = vr d and a = vr a and b = vr b in
      if d = 0 then next
      else fun t -> Array.unsafe_set regs d (w32 ((Array.unsafe_get regs a land 0xFFFFFFFF) lsr (Array.unsafe_get regs b land 31))); next t
  | Isa.Slli (d, a, n) ->
      let d = vr d and a = vr a and n = n land 31 in
      if d = 0 then next
      else fun t -> Array.unsafe_set regs d (w32 ((Array.unsafe_get regs a land 0xFFFFFFFF) lsl n)); next t
  | Isa.Srai (d, a, n) ->
      let d = vr d and a = vr a and n = n land 31 in
      if d = 0 then next
      else fun t -> Array.unsafe_set regs d (w32 (w32 (Array.unsafe_get regs a) asr n)); next t
  | Isa.Srli (d, a, n) ->
      let d = vr d and a = vr a and n = n land 31 in
      if d = 0 then next
      else fun t -> Array.unsafe_set regs d (w32 ((Array.unsafe_get regs a land 0xFFFFFFFF) lsr n)); next t
  | Isa.Set (c, d, a, b) -> (
      let d = vr d and a = vr a and b = vr b in
      if d = 0 then next
      else
        match c with
        | Isa.Clt ->
            fun t -> Array.unsafe_set regs d (if Array.unsafe_get regs a < Array.unsafe_get regs b then 1 else 0); next t
        | Isa.Cle ->
            fun t -> Array.unsafe_set regs d (if Array.unsafe_get regs a <= Array.unsafe_get regs b then 1 else 0); next t
        | Isa.Cgt ->
            fun t -> Array.unsafe_set regs d (if Array.unsafe_get regs a > Array.unsafe_get regs b then 1 else 0); next t
        | Isa.Cge ->
            fun t -> Array.unsafe_set regs d (if Array.unsafe_get regs a >= Array.unsafe_get regs b then 1 else 0); next t
        | Isa.Ceq ->
            fun t -> Array.unsafe_set regs d (if Array.unsafe_get regs a = Array.unsafe_get regs b then 1 else 0); next t
        | Isa.Cne ->
            fun t -> Array.unsafe_set regs d (if Array.unsafe_get regs a <> Array.unsafe_get regs b then 1 else 0); next t)
  | Isa.Li (d, n) ->
      let d = vr d in
      let n = Word.norm n in
      if d = 0 then next else fun t -> Array.unsafe_set regs d n; next t
  | Isa.Mov (d, a) ->
      let d = vr d and a = vr a in
      if d = 0 then next else fun t -> Array.unsafe_set regs d (Array.unsafe_get regs a); next t
  | Isa.Ld (d, a, off) ->
      let d = vr d and a = vr a in
      if d = 0 then (fun t ->
        let w = Array.unsafe_get regs a + off in
        if w < 0 || w >= ml then fail "read at bad address %d" w;
        Array.unsafe_set dbuf t.dbuf_len (data_byte_addr w);
        t.dbuf_len <- t.dbuf_len + 1;
        next t)
      else
        fun t ->
          let w = Array.unsafe_get regs a + off in
          if w < 0 || w >= ml then fail "read at bad address %d" w;
          Array.unsafe_set dbuf t.dbuf_len (data_byte_addr w);
          t.dbuf_len <- t.dbuf_len + 1;
          Array.unsafe_set regs d (Array.unsafe_get mem w);
          next t
  | Isa.St (v, a, off) ->
      let v = vr v and a = vr a in
      fun t ->
        let w = Array.unsafe_get regs a + off in
        if w < 0 || w >= ml then fail "write at bad address %d" w;
        Array.unsafe_set dbuf t.dbuf_len (data_byte_addr w lor 1);
        t.dbuf_len <- t.dbuf_len + 1;
        Array.unsafe_set mem w (Array.unsafe_get regs v);
        next t
  | Isa.Print r ->
      let r = vr r in
      fun t ->
        t.out <- Array.unsafe_get regs r :: t.out;
        next t
  | Isa.Nop -> next
  | Isa.Bnez _ | Isa.Beqz _ | Isa.Jmp _ | Isa.Jal _ | Isa.Jr _ | Isa.Acall _
  | Isa.Halt ->
      assert false (* terminators are compiled by [exit_op] *)

(* The block's last closure: drain the pending D-accesses (so the cache
   sees them before any acall flush or the next block's stream), then
   resolve control and return the next pc. *)
let exit_op regs last instr : t -> int =
  let fall = last + 1 in
  match instr with
  | Isa.Bnez (r, target) ->
      let r = vr r in
      fun t ->
        flush_daccesses t;
        if Array.unsafe_get regs r <> 0 then begin
          t.up_cycles <- t.up_cycles + Energy_model.taken_branch_cycles;
          t.taken_branches <- t.taken_branches + 1;
          target
        end
        else fall
  | Isa.Beqz (r, target) ->
      let r = vr r in
      fun t ->
        flush_daccesses t;
        if Array.unsafe_get regs r = 0 then begin
          t.up_cycles <- t.up_cycles + Energy_model.taken_branch_cycles;
          t.taken_branches <- t.taken_branches + 1;
          target
        end
        else fall
  | Isa.Jmp target ->
      fun t ->
        flush_daccesses t;
        target
  | Isa.Jal target ->
      fun t ->
        flush_daccesses t;
        Array.unsafe_set regs Isa.ra_reg fall;
        target
  | Isa.Jr r ->
      let r = vr r in
      fun t ->
        flush_daccesses t;
        Array.unsafe_get regs r
  | Isa.Acall k ->
      fun t ->
        flush_daccesses t;
        t.hooks.acall t k;
        fall
  | Isa.Halt ->
      fun t ->
        flush_daccesses t;
        t.halted <- true;
        fall
  | _ -> assert false

let decode t l =
  let code = t.code in
  let n = t.code_len in
  let rec find i =
    if i >= n then n - 1
    else if is_terminator (Array.unsafe_get code i) then i
    else find (i + 1)
  in
  let last = find l in
  let cycles = ref 0 in
  let intra = ref 0 in
  let counts = Array.make Isa.opclass_count 0 in
  let first_tag = Array.unsafe_get t.cls_of_pc l in
  let prev = ref first_tag in
  for i = l to last do
    let tag = Array.unsafe_get t.cls_of_pc i in
    counts.(tag) <- counts.(tag) + 1;
    cycles := !cycles + Array.unsafe_get t.cyc_of_pc i;
    if i > l && tag <> !prev then incr intra;
    prev := tag
  done;
  let npairs = Array.fold_left (fun a c -> if c > 0 then a + 1 else a) 0 counts in
  let cls = Array.make (npairs * 2) 0 in
  let j = ref 0 in
  Array.iteri
    (fun tag c ->
      if c > 0 then begin
        cls.(!j) <- tag;
        cls.(!j + 1) <- c;
        j := !j + 2
      end)
    counts;
  let term = Array.unsafe_get code last in
  let exit_ =
    if is_terminator term then exit_op t.regs last term
    else
      (* the code ran out with no terminator: execute the final
         instruction normally, then fail at the fall-through pc like
         the per-instruction engine does *)
      chain_op t last term (fun t ->
          flush_daccesses t;
          fail "pc %d out of code range" n)
  in
  let rec build i next =
    if i < l then next
    else build (i - 1) (chain_op t i (Array.unsafe_get code i) next)
  in
  let b =
    {
      b_pc = l;
      b_len = last - l + 1;
      b_cycles = !cycles;
      b_first_tag = first_tag;
      b_last_tag = !prev;
      b_intra = !intra;
      b_cls = cls;
      b_ops = build (last - 1) exit_;
    }
  in
  t.blocks.(l) <- Some b;
  t.blocks_decoded <- t.blocks_decoded + 1;
  b

(* --- the dispatcher ------------------------------------------------- *)

let exec_block t b =
  t.fuel <- t.fuel - b.b_len;
  t.block_entries <- t.block_entries + 1;
  t.instr_count <- t.instr_count + b.b_len;
  t.up_cycles <- t.up_cycles + b.b_cycles;
  if t.last_tag >= 0 && t.last_tag <> b.b_first_tag then
    t.class_transitions <- t.class_transitions + 1;
  t.class_transitions <- t.class_transitions + b.b_intra;
  t.last_tag <- b.b_last_tag;
  let cls = b.b_cls in
  let cc = t.class_counts in
  let np = Array.length cls in
  let i = ref 0 in
  while !i < np do
    let tag = Array.unsafe_get cls !i in
    cc.(tag) <- cc.(tag) + Array.unsafe_get cls (!i + 1);
    i := !i + 2
  done;
  let st = t.hooks.ifetch_run (b.b_pc * 4) b.b_len in
  if st <> 0 then t.stall_cycles <- t.stall_cycles + st;
  t.pc <- b.b_ops t

let run t =
  let n = t.code_len in
  let blocks = t.blocks in
  while not t.halted do
    (* Block mode consumes a whole block's fuel up front; once fuel
       could conceivably run out mid-block ([fuel < code_len] bounds
       any block length) fall back to the per-instruction engine so
       fuel exhaustion fires at exactly the same instruction. *)
    if t.fuel < n then step t
    else begin
      let pc = t.pc in
      if pc < 0 || pc >= n then fail "pc %d out of code range" pc;
      let b =
        match Array.unsafe_get blocks pc with
        | Some b -> b
        | None -> decode t pc
      in
      exec_block t b
    end
  done
