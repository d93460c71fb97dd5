open Lp_ir.Ast
module Isa = Lp_isa.Isa
module Asm = Lp_isa.Asm
module Names = Hashtbl.Make (String)

type asic_stub = {
  acall_id : int;
  top_sids : int list;
  use_scalars : string list;
  gen_scalars : string list;
}

type layout = {
  array_bases : (string * int) list;
  mailbox_base : int;
  mailbox_slots : (int * (string * int) list) list;
  stack_top : int;
  data_words : int;
}

exception Compile_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Compile_error s)) fmt

let stack_words = 4096
let imm_ok n = n >= -32768 && n <= 32767

type loc = Reg of int | Slot of int

(* The whole program's assembly stream, newest item first: every
   function appends to the same list. *)
type buffer = { mutable items : Asm.item list }

(* Per-function code-generation context. Free temporaries form a stack
   (the most recently freed is reused first); [in_use] is a bit set, and
   [alloc_time] orders the live temporaries by allocation, newest
   first, when a call saves them. *)
type fctx = {
  buf : buffer;
  homes : loc Names.t;
  free : int array;
  mutable n_free : int;
  mutable in_use : int;
  alloc_time : int array;
  mutable clock : int;
  n_spill : int;
  epilogue : string;
}

let emit ctx item = ctx.buf.items <- item :: ctx.buf.items

let ins ctx i = emit ctx (Asm.Instr i)

(* Domain-local so concurrent compiles (one flow run per worker domain)
   neither race nor perturb each other's label numbering; [compile]
   resets its domain's counter, keeping output deterministic. *)
let label_counter = Domain.DLS.new_key (fun () -> ref 0)

let fresh_label prefix =
  let counter = Domain.DLS.get label_counter in
  incr counter;
  prefix ^ string_of_int !counter

let alloc_temp ctx =
  if ctx.n_free = 0 then fail "expression too deep: temporary registers exhausted";
  ctx.n_free <- ctx.n_free - 1;
  let t = ctx.free.(ctx.n_free) in
  ctx.in_use <- ctx.in_use lor (1 lsl t);
  ctx.alloc_time.(t) <- ctx.clock;
  ctx.clock <- ctx.clock + 1;
  t

let free_temp ctx r =
  if ctx.in_use land (1 lsl r) <> 0 then begin
    ctx.in_use <- ctx.in_use land lnot (1 lsl r);
    ctx.free.(ctx.n_free) <- r;
    ctx.n_free <- ctx.n_free + 1
  end

let live_temps ctx =
  List.filter (fun r -> ctx.in_use land (1 lsl r) <> 0) Isa.tmp_regs
  |> List.sort (fun a b -> compare ctx.alloc_time.(b) ctx.alloc_time.(a))

(* An evaluated operand is an int, not a pair, so evaluation allocates
   nothing of its own: its register (below [owned], as there are 32),
   plus [owned] when it is a temporary the caller must free. *)
let owned = 64
let reg o = o land (owned - 1)
let is_owned o = o land owned <> 0
let free_if ctx o = if is_owned o then free_temp ctx (reg o)

(* Save slot (sp-relative) of a temporary register around calls. *)
let temp_slot ctx r =
  let rec index i = function
    | [] -> fail "not a temp register r%d" r
    | x :: rest -> if x = r then i else index (i + 1) rest
  in
  ctx.n_spill + index 0 Isa.tmp_regs

let home ctx v =
  match Names.find ctx.homes v with
  | l -> l
  | exception Not_found -> fail "no home for scalar %S" v

(* Memory access at [base + contents of ri]; falls back to the scratch
   register when the base exceeds the immediate range. *)
let mem_load ctx td ri base =
  if imm_ok base then ins ctx (Isa.Ld (td, ri, base))
  else begin
    ins ctx (Isa.Li (Isa.scratch_reg, base));
    ins ctx (Isa.Add (Isa.scratch_reg, Isa.scratch_reg, ri));
    ins ctx (Isa.Ld (td, Isa.scratch_reg, 0))
  end

let mem_store ctx rv ri base =
  if imm_ok base then ins ctx (Isa.St (rv, ri, base))
  else begin
    ins ctx (Isa.Li (Isa.scratch_reg, base));
    ins ctx (Isa.Add (Isa.scratch_reg, Isa.scratch_reg, ri));
    ins ctx (Isa.St (rv, Isa.scratch_reg, 0))
  end

let cmp_of_binop = function
  | Lt -> Isa.Clt
  | Le -> Isa.Cle
  | Gt -> Isa.Cgt
  | Ge -> Isa.Cge
  | Eq -> Isa.Ceq
  | Ne -> Isa.Cne
  | Add | Sub | Mul | Div | Mod | And | Or | Xor | Shl | Shr ->
      fail "not a comparison"

(* Evaluate an expression into an operand. Owned registers are
   temporaries the caller must free; non-owned ones are scalar homes
   that must not be clobbered. *)
let rec eval ctx arrays e =
  match e with
  | Int n ->
      let t = alloc_temp ctx in
      ins ctx (Isa.Li (t, n));
      t lor owned
  | Var v -> (
      match home ctx v with
      | Reg r -> r
      | Slot k ->
          let t = alloc_temp ctx in
          ins ctx (Isa.Ld (t, Isa.sp_reg, k));
          t lor owned)
  | Load (a, i) ->
      let base =
        match List.assoc_opt a arrays with
        | Some b -> b
        | None -> fail "unknown array %S" a
      in
      let i = eval ctx arrays i in
      let ri = reg i in
      let td = if is_owned i then ri else alloc_temp ctx in
      mem_load ctx td ri base;
      td lor owned
  | Binop (op, x, y) ->
      let x = eval ctx arrays x in
      let y = eval ctx arrays y in
      let rx = reg x and ox = is_owned x and ry = reg y and oy = is_owned y in
      let td =
        if ox then rx else if oy then ry else alloc_temp ctx
      in
      (match op with
      | Add -> ins ctx (Isa.Add (td, rx, ry))
      | Sub -> ins ctx (Isa.Sub (td, rx, ry))
      | Mul -> ins ctx (Isa.Mul (td, rx, ry))
      | Div -> ins ctx (Isa.Div (td, rx, ry))
      | Mod -> ins ctx (Isa.Rem (td, rx, ry))
      | And -> ins ctx (Isa.And (td, rx, ry))
      | Or -> ins ctx (Isa.Or (td, rx, ry))
      | Xor -> ins ctx (Isa.Xor (td, rx, ry))
      | Shl -> ins ctx (Isa.Sll (td, rx, ry))
      | Shr -> ins ctx (Isa.Sra (td, rx, ry))
      | Lt | Le | Gt | Ge | Eq | Ne ->
          ins ctx (Isa.Set (cmp_of_binop op, td, rx, ry)));
      (* td reused rx (when owned), else ry (when owned), else is
         fresh; only a doubly-owned pair leaves ry to release. *)
      if ox && oy then free_temp ctx ry;
      td lor owned
  | Unop (op, x) ->
      let x = eval ctx arrays x in
      let rx = reg x in
      let td = if is_owned x then rx else alloc_temp ctx in
      (match op with
      | Neg -> ins ctx (Isa.Sub (td, Isa.zero_reg, rx))
      | Bnot -> ins ctx (Isa.Xori (td, rx, -1))
      | Lnot -> ins ctx (Isa.Set (Isa.Ceq, td, rx, Isa.zero_reg)));
      td lor owned
  | Call (f, args) ->
      if List.length args > List.length Isa.arg_regs then
        fail "call to %S: more than %d arguments" f (List.length Isa.arg_regs);
      (* Evaluate arguments into owned temporaries... *)
      let arg_temps =
        List.map
          (fun a ->
            let o = eval ctx arrays a in
            let r = reg o in
            if is_owned o then r
            else begin
              let t = alloc_temp ctx in
              ins ctx (Isa.Mov (t, r));
              t
            end)
          args
      in
      (* ...move them to the argument registers and free them. *)
      List.iteri
        (fun i t -> ins ctx (Isa.Mov (List.nth Isa.arg_regs i, t)))
        arg_temps;
      List.iter (free_temp ctx) arg_temps;
      (* Caller-save the live temporaries across the call. *)
      let live = live_temps ctx in
      List.iter (fun t -> ins ctx (Isa.St (t, Isa.sp_reg, temp_slot ctx t))) live;
      emit ctx (Asm.Jal_l ("f_" ^ f));
      List.iter (fun t -> ins ctx (Isa.Ld (t, Isa.sp_reg, temp_slot ctx t))) live;
      let t = alloc_temp ctx in
      ins ctx (Isa.Mov (t, Isa.ret_val_reg));
      t lor owned

let store_home ctx v r =
  match home ctx v with
  | Reg hr -> if hr <> r then ins ctx (Isa.Mov (hr, r))
  | Slot k -> ins ctx (Isa.St (r, Isa.sp_reg, k))

let load_home ctx v =
  (* Like [eval (Var v)] but as a statement helper. *)
  match home ctx v with
  | Reg r -> r
  | Slot k ->
      let t = alloc_temp ctx in
      ins ctx (Isa.Ld (t, Isa.sp_reg, k));
      t lor owned

let hidden_hi sid = "$hi" ^ string_of_int sid

(* What an entry-function statement becomes in a partitioned compile:
   the first statement of a stub's cluster becomes its handshake, the
   others disappear. *)
type stubbed = Head of asic_stub | Member

type genv = {
  arrays : (string * int) list;
  stubbed : (int, stubbed) Hashtbl.t;  (** by top-level sid *)
  slots : (int * (string * int) list) list;  (** acall_id -> var -> addr *)
}

(* A sid heading several stubs' lists belongs to the first of them, and
   heading one wins over belonging to another. *)
let index_stubs stubs =
  let t = Hashtbl.create 64 in
  List.iter
    (fun st -> List.iter (fun sid -> Hashtbl.replace t sid Member) st.top_sids)
    stubs;
  List.iter
    (fun st ->
      match st.top_sids with
      | h :: _ -> (
          match Hashtbl.find_opt t h with
          | Some (Head _) -> ()
          | Some Member | None -> Hashtbl.replace t h (Head st))
      | [] -> ())
    stubs;
  t

let rec compile_stmt genv ctx s =
  match s.node with
  | Assign (v, e) ->
      let o = eval ctx genv.arrays e in
      let r = reg o in
      store_home ctx v r;
      free_if ctx o
  | Store (a, i, e) ->
      let base =
        match List.assoc_opt a genv.arrays with
        | Some b -> b
        | None -> fail "unknown array %S" a
      in
      let oi = eval ctx genv.arrays i in
      let ri = reg oi in
      let ov = eval ctx genv.arrays e in
      let rv = reg ov in
      mem_store ctx rv ri base;
      free_if ctx oi;
      free_if ctx ov
  | If (c, t, e) ->
      let l_else = fresh_label "Lelse" in
      let l_end = fresh_label "Lend" in
      let oc = eval ctx genv.arrays c in
      let rc = reg oc in
      emit ctx (Asm.Beqz_l (rc, l_else));
      free_if ctx oc;
      List.iter (compile_stmt genv ctx) t;
      emit ctx (Asm.Jmp_l l_end);
      emit ctx (Asm.Label l_else);
      List.iter (compile_stmt genv ctx) e;
      emit ctx (Asm.Label l_end)
  | While (c, b) ->
      let l_head = fresh_label "Lwhile" in
      let l_end = fresh_label "Lend" in
      emit ctx (Asm.Label l_head);
      let oc = eval ctx genv.arrays c in
      let rc = reg oc in
      emit ctx (Asm.Beqz_l (rc, l_end));
      free_if ctx oc;
      List.iter (compile_stmt genv ctx) b;
      emit ctx (Asm.Jmp_l l_head);
      emit ctx (Asm.Label l_end)
  | For (v, lo, hi, b) ->
      let l_head = fresh_label "Lfor" in
      let l_end = fresh_label "Lend" in
      let hi_name = hidden_hi s.sid in
      let o_lo = eval ctx genv.arrays lo in
      let r_lo = reg o_lo in
      store_home ctx v r_lo;
      free_if ctx o_lo;
      let o_hi = eval ctx genv.arrays hi in
      let r_hi = reg o_hi in
      store_home ctx hi_name r_hi;
      free_if ctx o_hi;
      emit ctx (Asm.Label l_head);
      let ov = load_home ctx v in
      let rv = reg ov in
      let oh = load_home ctx hi_name in
      let rh = reg oh in
      let t = alloc_temp ctx in
      ins ctx (Isa.Set (Isa.Clt, t, rv, rh));
      free_if ctx ov;
      free_if ctx oh;
      emit ctx (Asm.Beqz_l (t, l_end));
      free_temp ctx t;
      List.iter (compile_stmt genv ctx) b;
      (* v := v + 1 *)
      let ov = load_home ctx v in
      let rv = reg ov in
      let td = if is_owned ov then rv else alloc_temp ctx in
      ins ctx (Isa.Addi (td, rv, 1));
      store_home ctx v td;
      free_temp ctx td;
      emit ctx (Asm.Jmp_l l_head);
      emit ctx (Asm.Label l_end)
  | Print e ->
      let o = eval ctx genv.arrays e in
      let r = reg o in
      ins ctx (Isa.Print r);
      free_if ctx o
  | Return (Some e) ->
      let o = eval ctx genv.arrays e in
      let r = reg o in
      ins ctx (Isa.Mov (Isa.ret_val_reg, r));
      free_if ctx o;
      emit ctx (Asm.Jmp_l ctx.epilogue)
  | Return None ->
      ins ctx (Isa.Mov (Isa.ret_val_reg, Isa.zero_reg));
      emit ctx (Asm.Jmp_l ctx.epilogue)
  | Expr e -> free_if ctx (eval ctx genv.arrays e)

(* The uP -> mailbox -> ASIC -> mailbox -> uP handshake (Section 3.3).
   Every mailbox scalar is deposited, not only the upward-exposed uses:
   the cluster's gen set is MAY-write, so the ASIC needs the previous
   value of a scalar it might leave untouched in order to hand it back
   unchanged. *)
let compile_stub genv ctx stub =
  let slots = List.assoc stub.acall_id genv.slots in
  let slot v =
    match List.assoc_opt v slots with
    | Some a -> a
    | None -> fail "no mailbox slot for %S" v
  in
  List.iter
    (fun (v, _) ->
      let o = load_home ctx v in
      let r = reg o in
      mem_store ctx r Isa.zero_reg (slot v);
      free_if ctx o)
    slots;
  ins ctx (Isa.Acall stub.acall_id);
  List.iter
    (fun v ->
      let t = alloc_temp ctx in
      mem_load ctx t Isa.zero_reg (slot v);
      store_home ctx v t;
      free_temp ctx t)
    stub.gen_scalars

type scalar = { name : string; first : int; mutable weight : int }

(* All scalars of a function (parameters, locals, loop indices, hidden
   loop-bound slots), ordered by estimated dynamic access frequency:
   each static occurrence counts 4^loop-depth, so inner-loop scalars
   take the callee-saved registers and cold ones spill. Ties keep
   first-appearance order, so allocation is deterministic. *)
let func_scalars f =
  let table = Names.create 64 and order = ref [] in
  let touch v w =
    match Names.find table v with
    | s -> s.weight <- s.weight + w
    | exception Not_found ->
        let s = { name = v; first = Names.length table; weight = w } in
        Names.add table v s;
        order := s :: !order
  in
  let w_of depth = 1 lsl (2 * min depth 8) in
  List.iter (fun v -> touch v 1) f.params;
  List.iter (fun v -> touch v 0) f.locals;
  let rec expr depth e =
    let w = w_of depth in
    match e with
    | Int _ -> ()
    | Var v -> touch v w
    | Load (_, i) -> expr depth i
    | Binop (_, a, b) ->
        expr depth a;
        expr depth b
    | Unop (_, e) -> expr depth e
    | Call (_, args) -> List.iter (expr depth) args
  in
  let rec stmt depth s =
    let w = w_of depth in
    match s.node with
    | Assign (v, e) ->
        touch v w;
        expr depth e
    | Store (_, i, e) ->
        expr depth i;
        expr depth e
    | Print e | Expr e | Return (Some e) -> expr depth e
    | Return None -> ()
    | If (c, t, e) ->
        expr depth c;
        List.iter (stmt depth) t;
        List.iter (stmt depth) e
    | While (c, b) ->
        expr (depth + 1) c;
        List.iter (stmt (depth + 1)) b
    | For (v, lo, hi, b) ->
        expr depth lo;
        expr depth hi;
        (* The index is read/tested/incremented every iteration, the
           hidden bound is read every iteration. *)
        touch v (3 * w_of (depth + 1));
        touch (hidden_hi s.sid) (w_of (depth + 1));
        List.iter (stmt (depth + 1)) b
  in
  List.iter (stmt 0) f.body;
  List.sort
    (fun a b ->
      match compare b.weight a.weight with 0 -> compare a.first b.first | c -> c)
    !order
  |> List.map (fun s -> s.name)

let compile_func genv buf ~is_entry f =
  if List.length f.params > List.length Isa.arg_regs then
    fail "function %S has %d parameters; at most %d fit the argument registers"
      f.fname (List.length f.params) (List.length Isa.arg_regs);
  let scalars = func_scalars f in
  let n_regs = List.length Isa.saved_regs in
  let reg_scalars = List.filteri (fun i _ -> i < n_regs) scalars in
  let spill_scalars = List.filteri (fun i _ -> i >= n_regs) scalars in
  let homes = Names.create 64 in
  List.iteri
    (fun i v -> Names.replace homes v (Reg (List.nth Isa.saved_regs i)))
    reg_scalars;
  List.iteri (fun i v -> Names.replace homes v (Slot i)) spill_scalars;
  let n_spill = List.length spill_scalars in
  let used_saved = List.filteri (fun i _ -> i < n_regs) scalars |> List.length in
  let n_temp_save = List.length Isa.tmp_regs in
  let frame = n_spill + n_temp_save + used_saved + 1 in
  let epilogue = fresh_label ("Lret_" ^ f.fname) in
  let ctx =
    {
      buf;
      homes;
      free = Array.of_list (List.rev Isa.tmp_regs);
      n_free = List.length Isa.tmp_regs;
      in_use = 0;
      alloc_time = Array.make Isa.reg_count 0;
      clock = 0;
      n_spill;
      epilogue;
    }
  in
  emit ctx (Asm.Label ("f_" ^ f.fname));
  (* Prologue. *)
  ins ctx (Isa.Addi (Isa.sp_reg, Isa.sp_reg, -frame));
  ins ctx (Isa.St (Isa.ra_reg, Isa.sp_reg, frame - 1));
  List.iteri
    (fun i r ->
      if i < used_saved then
        ins ctx (Isa.St (r, Isa.sp_reg, n_spill + n_temp_save + i)))
    Isa.saved_regs;
  (* Home the parameters. *)
  List.iteri
    (fun i v ->
      let src = List.nth Isa.arg_regs i in
      match home ctx v with
      | Reg r -> ins ctx (Isa.Mov (r, src))
      | Slot k -> ins ctx (Isa.St (src, Isa.sp_reg, k)))
    f.params;
  (* Zero-initialise the remaining scalars (the interpreter gives
     locals value 0). *)
  List.iter
    (fun v ->
      if not (List.mem v f.params) then
        match home ctx v with
        | Reg r -> ins ctx (Isa.Mov (r, Isa.zero_reg))
        | Slot k -> ins ctx (Isa.St (Isa.zero_reg, Isa.sp_reg, k)))
    scalars;
  (* Body, with ASIC stubs spliced in for the entry function. *)
  List.iter
    (fun s ->
      match if is_entry then Hashtbl.find_opt genv.stubbed s.sid else None with
      | Some (Head st) -> compile_stub genv ctx st
      | Some Member -> ()
      | None -> compile_stmt genv ctx s)
    f.body;
  ins ctx (Isa.Mov (Isa.ret_val_reg, Isa.zero_reg));
  (* Epilogue. *)
  emit ctx (Asm.Label epilogue);
  List.iteri
    (fun i r ->
      if i < used_saved then
        ins ctx (Isa.Ld (r, Isa.sp_reg, n_spill + n_temp_save + i)))
    Isa.saved_regs;
  ins ctx (Isa.Ld (Isa.ra_reg, Isa.sp_reg, frame - 1));
  ins ctx (Isa.Addi (Isa.sp_reg, Isa.sp_reg, frame));
  ins ctx (Isa.Jr Isa.ra_reg)

let build_layout (p : program) stubs =
  let array_bases, next =
    List.fold_left
      (fun (acc, base) a -> ((a.aname, base) :: acc, base + a.size))
      ([], 0) p.arrays
  in
  let array_bases = List.rev array_bases in
  let mailbox_base = next in
  let slots, next =
    List.fold_left
      (fun (acc, base) st ->
        let seen = Hashtbl.create 16 in
        let vars =
          List.fold_left
            (fun vs v ->
              if Hashtbl.mem seen v then vs
              else begin
                Hashtbl.add seen v ();
                v :: vs
              end)
            [] (st.use_scalars @ st.gen_scalars)
          |> List.rev
        in
        let assigned = List.mapi (fun i v -> (v, base + i)) vars in
        ((st.acall_id, assigned) :: acc, base + List.length vars))
      ([], mailbox_base) stubs
  in
  let slots = List.rev slots in
  let stack_top = next + stack_words in
  {
    array_bases;
    mailbox_base;
    mailbox_slots = slots;
    stack_top;
    data_words = stack_top;
  }

let compile ?(stubs = []) ?(peephole = false) (p : program) =
  Domain.DLS.get label_counter := 0;
  let layout = build_layout p stubs in
  let genv =
    {
      arrays = layout.array_bases;
      stubbed = index_stubs stubs;
      slots = layout.mailbox_slots;
    }
  in
  let buf =
    {
      items =
        [
          Asm.Instr Isa.Halt;
          Asm.Jal_l ("f_" ^ p.entry);
          Asm.Instr (Isa.Li (Isa.sp_reg, layout.stack_top));
          Asm.Label "__start";
        ];
    }
  in
  List.iter
    (fun f -> compile_func genv buf ~is_entry:(f.fname = p.entry) f)
    p.funcs;
  let items = List.rev buf.items in
  let items = if peephole then fst (Peephole.optimize items) else items in
  let prog =
    Asm.assemble ~entry:"__start" ~data_words:layout.data_words
      ~symbols:layout.array_bases items
  in
  (prog, layout)

let initial_data (p : program) layout =
  List.filter_map
    (fun a ->
      match a.init with
      | None -> None
      | Some data ->
          let base = List.assoc a.aname layout.array_bases in
          Some (base, Array.map Lp_ir.Word.norm data))
    p.arrays
