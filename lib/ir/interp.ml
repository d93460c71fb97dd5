open Ast

type result = {
  outputs : int list;
  steps : int;
  profile : int array;
  array_reads : (string * int) list;
  array_writes : (string * int) list;
  final_arrays : (string * int array) list;
}

exception Runtime_error of string
(* To the enclosing call, which reads the value from [state.ret]: a
   constant exception, so a return allocates nothing. *)
exception Return

(* Every failure is [raise (error ...)]: the compiler knows that [raise]
   does not return, so a closure keeps nothing live across its cold path
   and spills nothing on its hot path. *)
let error fmt = Format.kasprintf (fun s -> Runtime_error s) fmt

type arr = { data : int array; mutable reads : int; mutable writes : int }

module Names = Set.Make (String)

(* A function resolved for one run. [scope] gives each scalar two frame
   slots (parameters, then locals, then other assigned or [For] scalars)
   and tells whether it is declared; the second slot is an undeclared
   scalar's bound flag. Each constant the body reads gets a slot after
   those, holding [consts.(i)] for the [i]th of [n_consts], so a constant
   operand is read like a declared scalar. Activations reuse frames: [frames.(d)] serves the activation
   [d] deep in this function's recursion, of which [active] are live.
   [code] is set once all functions have a record, for calls to capture.

   While the body compiles, [bound] holds the undeclared scalars that every
   path to the current point has written: a read of one of those is a
   plain slot read, without the bound check. *)
type fn = {
  func : func;
  scope : (var, int * bool) Hashtbl.t;
  mutable consts : int array;
  mutable n_consts : int;
  tail : bool;  (** the body ends in a [Return], which falls through *)
  early : bool;  (** some other [Return], which raises [Return] *)
  mutable bound : Names.t;
  mutable frames : int array array;
  mutable active : int;
  mutable code : int array -> unit;
}

(* A straight-line run is charged once per execution: [hits] counts its
   executions and is added to each of its [sids] when [run] returns. *)
type run = { mutable hits : int; sids : int array }

type state = {
  prof : int array;  (** indexed by sid; [max_sid] bounds every sid *)
  sink : int array;  (** the profile slot of every negative sid *)
  arrays : (var, arr) Hashtbl.t;
  funcs : (string, fn) Hashtbl.t;
  mutable runs : run list;
  mutable out : int list;
  mutable fuel : int;
  mutable depth : int;
  mutable ret : int;  (** the value of the [Return] in flight *)
}

let exhausted sid = error "fuel exhausted (infinite loop?) at sid %d" sid

(* A statement's profile slot [p.(k)], resolved at compile time: a
   negative sid counts into [sink], outside the profile. *)
let counter st sid = if sid < 0 then st.sink else st.prof
let slot_of sid = if sid < 0 then 0 else sid

let[@inline] tick st p k sid =
  if st.fuel <= 0 then raise (exhausted sid);
  st.fuel <- st.fuel - 1;
  Array.unsafe_set p k (Array.unsafe_get p k + 1)

(* Charge a run of [n] statements at once, if the fuel covers them all. *)
let[@inline] charge st n r =
  st.fuel >= n
  && begin
    st.fuel <- st.fuel - n;
    r.hits <- r.hits + 1;
    true
  end

(* The 32-bit wrap of [Word.norm], spelled out here: the dev profile
   compiles with [-opaque], so a [Word] call per operator could never be
   inlined. *)
let[@inline] w32 x = ((x land 0xFFFFFFFF) lxor 0x80000000) - 0x80000000

(* Frame reads and writes go unchecked: every slot a closure holds is
   below [frame_size], the length of every frame of its function. *)
let[@inline] get (fr : int array) k = Array.unsafe_get fr k
let[@inline] set (fr : int array) k v = Array.unsafe_set fr k v

let resolve (f : func) =
  let scope = Hashtbl.create 16 in
  let add declared v =
    if not (Hashtbl.mem scope v) then
      Hashtbl.add scope v (2 * Hashtbl.length scope, declared)
  in
  List.iter (add true) (f.params @ f.locals);
  iter_stmts
    (fun s -> match s.node with Assign (v, _) | For (v, _, _, _) -> add false v | _ -> ())
    f.body;
  let returns = fold_stmts (fun n s -> match s.node with Return _ -> n + 1 | _ -> n) 0 f.body in
  let tail = match List.rev f.body with { node = Return _; _ } :: _ -> true | _ -> false in
  { func = f; scope; consts = [||]; n_consts = 0; tail; early = returns > Bool.to_int tail;
    bound = Names.empty; frames = [||]; active = 0; code = ignore }

let frame_size fn = (2 * Hashtbl.length fn.scope) + fn.n_consts

let const fn n =
  let k = frame_size fn in
  if fn.n_consts = Array.length fn.consts then
    fn.consts <- Array.append fn.consts (Array.make (fn.n_consts + 8) 0);
  fn.consts.(fn.n_consts) <- n;
  fn.n_consts <- fn.n_consts + 1;
  k

(* The frame of a new activation of [c]: scalars 0 (unbound), constants
   in place. It stays live until the call returns; a run that raises is
   abandoned whole, frames and all. *)
let enter c =
  let d = c.active in
  c.active <- d + 1;
  if d = Array.length c.frames then begin
    let fr = Array.make (frame_size c) 0 in
    Array.blit c.consts 0 fr (2 * Hashtbl.length c.scope) c.n_consts;
    c.frames <- Array.append c.frames [| fr |];
    fr
  end
  else begin
    let fr = Array.unsafe_get c.frames d in
    for k = 0 to (2 * Hashtbl.length c.scope) - 1 do set fr k 0 done;
    fr
  end

let new_arr { init; size; _ } =
  { data = (match init with Some d -> Array.map Word.norm d | None -> Array.make size 0);
    reads = 0; writes = 0 }

let out_of_bounds what a d idx =
  error "%s %s[%d] out of bounds (size %d)" what a idx (Array.length d)

let[@inline] check what a d idx =
  if idx < 0 || idx >= Array.length d then raise (out_of_bounds what a d idx)

let[@inline] div a b =
  if b = 0 then raise (Runtime_error "division by zero") else w32 (a / b)

let[@inline] rem a b =
  if b = 0 then raise (Runtime_error "modulo by zero") else w32 (a mod b)

let[@inline] shl a b = w32 ((a land 0xFFFFFFFF) lsl b)
let[@inline] shr a b = w32 (w32 a asr b)

(* An operand is read inline when it is a frame slot (a declared or bound
   scalar, or a constant); anything else is a closure call. *)
type operand = Slot of int | Code of (int array -> int)

let code = function Slot k -> fun fr -> get fr k | Code f -> f

(* A value operator, one closure per operator and operand shape. A [Code]
   left operand is evaluated first; a slot read may move after a [Code]
   operand, which never writes the frame. *)
let arith op x y : int array -> int =
  match (op, x, y) with
  | Add, Slot a, Slot b -> fun fr -> w32 (get fr a + get fr b)
  | (Add, Code f, Slot b | Add, Slot b, Code f) -> fun fr -> w32 (f fr + get fr b)
  | Add, Code f, Code g -> fun fr -> let a = f fr in w32 (a + g fr)
  | Sub, Slot a, Slot b -> fun fr -> w32 (get fr a - get fr b)
  | Sub, Code f, Slot b -> fun fr -> w32 (f fr - get fr b)
  | Sub, Slot a, Code g -> fun fr -> w32 (get fr a - g fr)
  | Sub, Code f, Code g -> fun fr -> let a = f fr in w32 (a - g fr)
  | Mul, Slot a, Slot b -> fun fr -> w32 (get fr a * get fr b)
  | (Mul, Code f, Slot b | Mul, Slot b, Code f) -> fun fr -> w32 (f fr * get fr b)
  | Mul, Code f, Code g -> fun fr -> let a = f fr in w32 (a * g fr)
  | And, Slot a, Slot b -> fun fr -> w32 (get fr a land get fr b)
  | (And, Code f, Slot b | And, Slot b, Code f) -> fun fr -> w32 (f fr land get fr b)
  | And, Code f, Code g -> fun fr -> let a = f fr in w32 (a land g fr)
  | Or, Slot a, Slot b -> fun fr -> w32 (get fr a lor get fr b)
  | (Or, Code f, Slot b | Or, Slot b, Code f) -> fun fr -> w32 (f fr lor get fr b)
  | Or, Code f, Code g -> fun fr -> let a = f fr in w32 (a lor g fr)
  | Xor, Slot a, Slot b -> fun fr -> w32 (get fr a lxor get fr b)
  | (Xor, Code f, Slot b | Xor, Slot b, Code f) -> fun fr -> w32 (f fr lxor get fr b)
  | Xor, Code f, Code g -> fun fr -> let a = f fr in w32 (a lxor g fr)
  | Div, Slot a, Slot b -> fun fr -> div (get fr a) (get fr b)
  | Div, Code f, Slot b -> fun fr -> let a = f fr in div a (get fr b)
  | Div, Slot a, Code g -> fun fr -> let b = g fr in div (get fr a) b
  | Div, Code f, Code g -> fun fr -> let a = f fr in div a (g fr)
  | Mod, Slot a, Slot b -> fun fr -> rem (get fr a) (get fr b)
  | Mod, Code f, Slot b -> fun fr -> let a = f fr in rem a (get fr b)
  | Mod, Slot a, Code g -> fun fr -> let b = g fr in rem (get fr a) b
  | Mod, Code f, Code g -> fun fr -> let a = f fr in rem a (g fr)
  | Shl, Slot a, Slot b -> fun fr -> shl (get fr a) (get fr b land 31)
  | Shl, Code f, Slot b -> fun fr -> let a = f fr in shl a (get fr b land 31)
  | Shl, Slot a, Code g -> fun fr -> let b = g fr in shl (get fr a) (b land 31)
  | Shl, Code f, Code g -> fun fr -> let a = f fr in shl a (g fr land 31)
  | Shr, Slot a, Slot b -> fun fr -> shr (get fr a) (get fr b land 31)
  | Shr, Code f, Slot b -> fun fr -> let a = f fr in shr a (get fr b land 31)
  | Shr, Slot a, Code g -> fun fr -> let b = g fr in shr (get fr a) (b land 31)
  | Shr, Code f, Code g -> fun fr -> let a = f fr in shr a (g fr land 31)
  | (Lt | Le | Gt | Ge | Eq | Ne), _, _ -> invalid_arg "Interp.arith"

(* A shift by a constant: the count is masked here, once. *)
let shift_by op x c : int array -> int =
  let c = c land 31 in
  match (op, x) with
  | Shl, Slot a -> fun fr -> shl (get fr a) c
  | Shl, Code f -> fun fr -> shl (f fr) c
  | Shr, Slot a -> fun fr -> shr (get fr a) c
  | Shr, Code f -> fun fr -> shr (f fr) c
  | _ -> invalid_arg "Interp.shift_by"

let flip = function Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le | op -> op
let negate = function Lt -> Ge | Le -> Gt | Gt -> Le | Ge -> Lt | Eq -> Ne | Ne -> Eq | op -> op

(* A comparison as a condition: it never builds its 0/1 value. *)
let rec comparison op x y : int array -> bool =
  match (op, x, y) with
  | _, Slot a, Code g -> comparison (flip op) (Code g) (Slot a)
  | Lt, Slot a, Slot b -> fun fr -> get fr a < get fr b
  | Lt, Code f, Slot b -> fun fr -> f fr < get fr b
  | Lt, Code f, Code g -> fun fr -> let a = f fr in a < g fr
  | Le, Slot a, Slot b -> fun fr -> get fr a <= get fr b
  | Le, Code f, Slot b -> fun fr -> f fr <= get fr b
  | Le, Code f, Code g -> fun fr -> let a = f fr in a <= g fr
  | Gt, Slot a, Slot b -> fun fr -> get fr a > get fr b
  | Gt, Code f, Slot b -> fun fr -> f fr > get fr b
  | Gt, Code f, Code g -> fun fr -> let a = f fr in a > g fr
  | Ge, Slot a, Slot b -> fun fr -> get fr a >= get fr b
  | Ge, Code f, Slot b -> fun fr -> f fr >= get fr b
  | Ge, Code f, Code g -> fun fr -> let a = f fr in a >= g fr
  | Eq, Slot a, Slot b -> fun fr -> get fr a = get fr b
  | Eq, Code f, Slot b -> fun fr -> f fr = get fr b
  | Eq, Code f, Code g -> fun fr -> let a = f fr in a = g fr
  | Ne, Slot a, Slot b -> fun fr -> get fr a <> get fr b
  | Ne, Code f, Slot b -> fun fr -> f fr <> get fr b
  | Ne, Code f, Code g -> fun fr -> let a = f fr in a <> g fr
  | _ -> invalid_arg "Interp.comparison"

let rec operand st fn = function
  | Int n -> Slot (const fn n)
  | Var v -> (
      match Hashtbl.find_opt fn.scope v with
      | Some (k, true) -> Slot k
      | Some (k, false) when Names.mem v fn.bound -> Slot k
      | Some (k, false) ->
          Code (fun fr -> if get fr (k + 1) = 0 then raise (error "unbound scalar %S" v) else get fr k)
      | None -> Code (fun _ -> raise (error "unbound scalar %S" v)))
  | Load (a, i) -> (
      let i = operand st fn i in
      match (Hashtbl.find_opt st.arrays a, i) with
      | None, _ -> Code (fun _ -> raise (error "unknown array %S" a))
      | Some ({ data = d; _ } as r), Slot k ->
          Code
            (fun fr ->
              let idx = get fr k in
              check "load" a d idx;
              r.reads <- r.reads + 1;
              Array.unsafe_get d idx)
      | Some ({ data = d; _ } as r), Code i ->
          Code
            (fun fr ->
              let idx = i fr in
              check "load" a d idx;
              r.reads <- r.reads + 1;
              Array.unsafe_get d idx))
  | (Binop ((Lt | Le | Gt | Ge | Eq | Ne), _, _) | Unop (Lnot, _)) as e ->
      let c = cond st fn e in
      Code (fun fr -> if c fr then 1 else 0)
  | Binop (((Shl | Shr) as op), x, Int c) -> Code (shift_by op (operand st fn x) c)
  | Binop (op, x, y) ->
      let x = operand st fn x in
      Code (arith op x (operand st fn y))
  | Unop (Neg, e) -> operand st fn (Binop (Sub, Int 0, e))
  | Unop (Bnot, e) -> operand st fn (Binop (Xor, e, Int (-1)))
  | Call (g, args) -> Code (call st fn g args)

and expr st fn e = code (operand st fn e)

(* [e <> 0], or [e = 0] under [neg]: [Lnot] only flips [neg]. *)
and cond ?(neg = false) st fn = function
  | Unop (Lnot, e) -> cond ~neg:(not neg) st fn e
  | Binop (((Lt | Le | Gt | Ge | Eq | Ne) as op), x, y) ->
      let x = operand st fn x in
      comparison (if neg then negate op else op) x (operand st fn y)
  | e -> (
      match (operand st fn e, neg) with
      | Slot k, false -> fun fr -> get fr k <> 0
      | Slot k, true -> fun fr -> get fr k = 0
      | Code f, false -> fun fr -> f fr <> 0
      | Code f, true -> fun fr -> f fr = 0)

and call st fn g args =
  let args = Array.of_list (List.map (expr st fn) args) in
  match Hashtbl.find_opt st.funcs g with
  | None ->
      fun fr ->
        Array.iter (fun a -> ignore (a fr)) args;
        raise (error "call to unknown function %S" g)
  | Some c ->
      (* A local that shadows a parameter starts at 0, as in any frame. *)
      let { params; locals; _ } = c.func in
      let slot p = if List.mem p locals then -1 else fst (Hashtbl.find c.scope p) in
      let slots = Array.of_list (List.map slot params) in
      let n = Array.length args in
      let[@inline] invoke callee =
        if st.depth >= 256 then raise (error "call depth exceeded in %S" g);
        st.depth <- st.depth + 1;
        let v =
          if not c.early then (c.code callee; if c.tail then st.ret else 0)
          else
            match c.code callee with
            | () -> if c.tail then st.ret else 0
            | exception Return -> st.ret
        in
        st.depth <- st.depth - 1;
        c.active <- c.active - 1;
        v
      in
      if n = Array.length slots && Array.for_all (fun k -> k >= 0) slots then
        fun fr ->
          let callee = enter c in
          for j = 0 to n - 1 do
            set callee (Array.unsafe_get slots j) ((Array.unsafe_get args j) fr)
          done;
          invoke callee
      else
        fun fr ->
          let callee = enter c in
          for j = 0 to n - 1 do
            let v = args.(j) fr in
            if j < Array.length slots && slots.(j) >= 0 then callee.(slots.(j)) <- v
          done;
          (* The depth error comes first, as in the reference. *)
          if st.depth < 256 && n <> Array.length slots then invalid_arg "List.iter2";
          invoke callee

(* The slot of [v], about to be written, and whether the write must also
   set its bound flag: not when [v] is declared or already bound. From
   here on [v] is bound. *)
let target fn v =
  let s, declared = Hashtbl.find fn.scope v in
  if declared || Names.mem v fn.bound then (s, false)
  else begin
    fn.bound <- Names.add v fn.bound;
    (s, true)
  end

(* The effect of an [Assign], [Store] or [Print], without its tick. *)
let straight st fn node : int array -> unit =
  match node with
  | Assign (v, e) -> (
      let e = operand st fn e in
      match (target fn v, e) with
      | (s, false), Slot k -> fun fr -> set fr s (get fr k)
      | (s, false), Code e -> fun fr -> set fr s (e fr)
      | (s, true), e ->
          let e = code e in
          fun fr -> set fr s (e fr); set fr (s + 1) 1)
  | Store (a, i, e) -> (
      let i = operand st fn i in
      let e = operand st fn e in
      match (Hashtbl.find_opt st.arrays a, i, e) with
      | None, _, _ -> fun _ -> raise (error "unknown array %S" a)
      | Some ({ data = d; _ } as r), Slot i, Slot k ->
          fun fr ->
            let idx = get fr i in
            check "store" a d idx;
            r.writes <- r.writes + 1;
            Array.unsafe_set d idx (get fr k)
      | Some ({ data = d; _ } as r), Slot i, Code e ->
          fun fr ->
            let v = e fr in
            let idx = get fr i in
            check "store" a d idx;
            r.writes <- r.writes + 1;
            Array.unsafe_set d idx v
      | Some ({ data = d; _ } as r), Code i, e ->
          let e = code e in
          fun fr ->
            let idx = i fr in
            let v = e fr in
            check "store" a d idx;
            r.writes <- r.writes + 1;
            Array.unsafe_set d idx v)
  | Print e ->
      (* [e] may call a function that prints: evaluate before reading [out]. *)
      let e = expr st fn e in
      fun fr -> let v = e fr in st.out <- v :: st.out
  | _ -> invalid_arg "Interp.straight"

let rec calls = function
  | Int _ | Var _ -> false
  | Load (_, e) | Unop (_, e) -> calls e
  | Binop (_, x, y) -> calls x || calls y
  | Call _ -> true

(* A statement of a straight-line run: a call-free [Assign], [Store] or
   [Print]. No other statement ticks between its tick and the next one's. *)
let is_straight = function
  | Assign (_, e) | Print e -> not (calls e)
  | Store (_, i, e) -> not (calls i || calls e)
  | _ -> false

(* Closures in order. Up to six are unrolled: a call site of their own
   predicts each better than one site in a loop shared by all. *)
let sequence = function
  | [| a |] -> a
  | [| a; b |] -> fun fr -> a fr; b fr
  | [| a; b; c |] -> fun fr -> a fr; b fr; c fr
  | [| a; b; c; d |] -> fun fr -> a fr; b fr; c fr; d fr
  | [| a; b; c; d; e |] -> fun fr -> a fr; b fr; c fr; d fr; e fr
  | [| a; b; c; d; e; f |] -> fun fr -> a fr; b fr; c fr; d fr; e fr; f fr
  | a -> fun fr -> for j = 0 to Array.length a - 1 do (Array.unsafe_get a j) fr done

(* Statements compile in execution order, as [bound] requires. *)
let rec stmt ~tail st fn { sid; node } =
  let p = counter st sid and k = slot_of sid in
  match node with
  | Assign (v, e) -> (
      let e = operand st fn e in
      match (target fn v, e) with
      | (s, false), Slot e -> fun fr -> tick st p k sid; set fr s (get fr e)
      | (s, false), Code e -> fun fr -> tick st p k sid; set fr s (e fr)
      | (s, true), e ->
          let e = code e in
          fun fr -> tick st p k sid; set fr s (e fr); set fr (s + 1) 1)
  | Store _ | Print _ ->
      let b = straight st fn node in
      fun fr -> tick st p k sid; b fr
  (* A branch or a loop body may not run: what it binds is dropped. *)
  | If (c, t, e) -> (
      let c = cond st fn c in
      let before = fn.bound in
      let t = block st fn t in
      let after_t = fn.bound in
      fn.bound <- before;
      match e with
      | [] -> fun fr -> tick st p k sid; if c fr then t fr
      | e ->
          let e = block st fn e in
          fn.bound <- Names.inter after_t fn.bound;
          fun fr -> tick st p k sid; if c fr then t fr else e fr)
  | While (c, b) ->
      let c = cond st fn c in
      let before = fn.bound in
      let b = block st fn b in
      fn.bound <- before;
      fun fr -> tick st p k sid; while c fr do b fr done
  | For (v, lo, hi, b) ->
      let lo = expr st fn lo in
      let hi = expr st fn hi in
      let s, flag = target fn v in
      let with_v = fn.bound in
      let writes_v s = match s.node with Assign (w, _) -> w = v | _ -> false in
      if b <> [] && List.for_all (fun s -> is_straight s.node && not (writes_v s)) b
      then begin
        (* A straight body that leaves [v] alone runs [h - l] times: when
           the fuel covers them all, the loop is charged once. *)
        let n, r, bodies, slow = straight_parts st fn b in
        fn.bound <- with_v;
        let body = sequence bodies in
        fun fr ->
          tick st p k sid;
          let l = lo fr in
          let h = hi fr in
          set fr s l; if flag then set fr (s + 1) 1;
          let trips = h - l in
          if trips > 0 && st.fuel >= trips * n then begin
            st.fuel <- st.fuel - (trips * n);
            r.hits <- r.hits + trips;
            for i = l to h - 1 do set fr s i; body fr done;
            set fr s h
          end
          else
            while get fr s < h do
              if charge st n r then body fr else slow fr;
              set fr s (w32 (get fr s + 1))
            done
      end
      else begin
        let b = block st fn b in
        fn.bound <- with_v;
        fun fr ->
          tick st p k sid;
          let l = lo fr in
          let h = hi fr in
          set fr s l; if flag then set fr (s + 1) 1;
          (* The body may write [v]: it is re-read after every iteration. *)
          while get fr s < h do b fr; set fr s (w32 (get fr s + 1)) done
      end
  | Return e ->
      let e = match e with Some e -> expr st fn e | None -> fun _ -> 0 in
      if tail then fun fr -> tick st p k sid; st.ret <- e fr
      else fun fr -> tick st p k sid; st.ret <- e fr; raise_notrace Return
  | Expr e -> let e = expr st fn e in fun fr -> tick st p k sid; ignore (e fr)

(* A straight-line run: its length, its counter, its statements' effects,
   and the path that ticks statement by statement, for when the fuel does
   not cover the run; the statement that exhausts it then names itself. *)
and straight_parts st fn ss =
  let ss = Array.of_list ss in
  let n = Array.length ss in
  let sids = Array.map (fun s -> s.sid) ss in
  let r = { hits = 0; sids = Array.of_seq (Seq.filter (fun s -> s >= 0) (Array.to_seq sids)) } in
  st.runs <- r :: st.runs;
  let bodies = Array.map (fun s -> straight st fn s.node) ss in
  let slow fr =
    for j = 0 to n - 1 do
      tick st (counter st sids.(j)) (slot_of sids.(j)) sids.(j);
      bodies.(j) fr
    done
  in
  (n, r, bodies, slow)

and straight_run st fn ss =
  let n, r, bodies, slow = straight_parts st fn ss in
  let body = sequence bodies in
  fun fr -> if charge st n r then body fr else slow fr

(* [tail]: [ss] is a function body, whose last statement, if a [Return],
   returns by falling through. *)
and block ?(tail = false) st fn ss =
  (* Group maximal straight-line runs; a lone statement keeps its tick. *)
  let last = List.length ss - 1 in
  let items = ref [] and run = ref [] in
  let flush () =
    (match !run with
    | [] -> ()
    | [ s ] -> items := stmt ~tail:false st fn s :: !items
    | ss -> items := straight_run st fn (List.rev ss) :: !items);
    run := []
  in
  List.iteri
    (fun j s ->
      if is_straight s.node then run := s :: !run
      else (flush (); items := stmt ~tail:(tail && j = last) st fn s :: !items))
    ss;
  flush ();
  match Array.of_list (List.rev !items) with [||] -> fun _ -> () | a -> sequence a

let run ?(fuel = 200_000_000) p =
  let n = max (max_sid p + 1) 1 in
  let arrays = Hashtbl.create 16 and funcs = Hashtbl.create 16 in
  let st =
    { prof = Array.make n 0; sink = [| 0 |]; arrays; funcs; runs = []; out = [];
      fuel; depth = 0; ret = 0 }
  in
  List.iter (fun a -> Hashtbl.replace arrays a.aname (new_arr a)) p.arrays;
  (* Replacing in reverse keeps the first function of a name, as [find_func]. *)
  List.iter (fun f -> Hashtbl.replace funcs f.fname (resolve f)) (List.rev p.funcs);
  Hashtbl.iter (fun _ fn -> fn.code <- block ~tail:true st fn fn.func.body) funcs;
  let entry = resolve { fname = ""; params = []; locals = []; body = [] } in
  ignore (call st entry p.entry [] [||]);
  List.iter
    (fun r -> Array.iter (fun sid -> st.prof.(sid) <- st.prof.(sid) + r.hits) r.sids)
    st.runs;
  let all = Hashtbl.fold (fun a r l -> (a, r) :: l) arrays [] in
  let all = List.sort (fun (a, _) (b, _) -> String.compare a b) all in
  let used f = List.filter (fun (_, n) -> n > 0) (List.map (fun (a, r) -> (a, f r)) all) in
  {
    outputs = List.rev st.out;
    steps = fuel - st.fuel;
    profile = st.prof;
    array_reads = used (fun r -> r.reads);
    array_writes = used (fun r -> r.writes);
    final_arrays = List.map (fun (a, r) -> (a, r.data)) all;
  }

let ex_times r sid =
  if sid >= 0 && sid < Array.length r.profile then r.profile.(sid) else 0
