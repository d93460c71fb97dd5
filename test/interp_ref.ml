(* Test-only copy of the original hash-table interpreter: every scalar,
   array counter and callee is looked up by name on every step. It is the
   oracle the slot-resolved [Lp_ir.Interp] is differentially checked
   against ([test_interp]); only the added [open Lp_ir] differs from its
   source. *)

open Lp_ir
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

exception Return_exc of int

let fail fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

type state = {
  program : program;
  arrays : (string, int array) Hashtbl.t;
  reads : (string, int ref) Hashtbl.t;
  writes : (string, int ref) Hashtbl.t;
  prof : int array;
  mutable fuel : int;
  mutable out : int list;
  mutable depth : int;
}

let max_call_depth = 256

let eval_binop op a b =
  match op with
  | Add -> Word.add a b
  | Sub -> Word.sub a b
  | Mul -> Word.mul a b
  | Div -> if b = 0 then fail "division by zero" else Word.div a b
  | Mod -> if b = 0 then fail "modulo by zero" else Word.rem a b
  | And -> Word.logand a b
  | Or -> Word.logor a b
  | Xor -> Word.logxor a b
  | Shl -> Word.shl a b
  | Shr -> Word.shr a b
  | Lt -> Word.of_bool (a < b)
  | Le -> Word.of_bool (a <= b)
  | Gt -> Word.of_bool (a > b)
  | Ge -> Word.of_bool (a >= b)
  | Eq -> Word.of_bool (a = b)
  | Ne -> Word.of_bool (a <> b)

let eval_unop op a =
  match op with
  | Neg -> Word.neg a
  | Bnot -> Word.lognot a
  | Lnot -> Word.of_bool (a = 0)

let array_of st name =
  match Hashtbl.find_opt st.arrays name with
  | Some arr -> arr
  | None -> fail "unknown array %S" name

let bump tbl name =
  match Hashtbl.find_opt tbl name with
  | Some r -> incr r
  | None -> Hashtbl.add tbl name (ref 1)

let rec eval_expr st env = function
  | Int n -> n
  | Var v -> (
      match Hashtbl.find_opt env v with
      | Some x -> x
      | None -> fail "unbound scalar %S" v)
  | Load (a, i) ->
      let arr = array_of st a in
      let idx = eval_expr st env i in
      if idx < 0 || idx >= Array.length arr then
        fail "load %s[%d] out of bounds (size %d)" a idx (Array.length arr);
      bump st.reads a;
      arr.(idx)
  | Binop (op, x, y) ->
      let a = eval_expr st env x in
      let b = eval_expr st env y in
      eval_binop op a b
  | Unop (op, e) -> eval_unop op (eval_expr st env e)
  | Call (f, args) ->
      let vals = List.map (eval_expr st env) args in
      call_func st f vals

and call_func st fname arg_vals =
  let f =
    match find_func st.program fname with
    | Some f -> f
    | None -> fail "call to unknown function %S" fname
  in
  if st.depth >= max_call_depth then fail "call depth exceeded in %S" fname;
  st.depth <- st.depth + 1;
  let env = Hashtbl.create 16 in
  List.iter2 (fun p v -> Hashtbl.replace env p v) f.params arg_vals;
  List.iter (fun l -> Hashtbl.replace env l 0) f.locals;
  let ret =
    try
      exec_block st env f.body;
      0
    with Return_exc v -> v
  in
  st.depth <- st.depth - 1;
  ret

and exec_block st env stmts = List.iter (exec_stmt st env) stmts

and exec_stmt st env s =
  if st.fuel <= 0 then fail "fuel exhausted (infinite loop?) at sid %d" s.sid;
  st.fuel <- st.fuel - 1;
  if s.sid >= 0 && s.sid < Array.length st.prof then
    st.prof.(s.sid) <- st.prof.(s.sid) + 1;
  match s.node with
  | Assign (v, e) -> Hashtbl.replace env v (eval_expr st env e)
  | Store (a, i, e) ->
      let arr = array_of st a in
      let idx = eval_expr st env i in
      let v = eval_expr st env e in
      if idx < 0 || idx >= Array.length arr then
        fail "store %s[%d] out of bounds (size %d)" a idx (Array.length arr);
      bump st.writes a;
      arr.(idx) <- v
  | If (c, t, e) ->
      if eval_expr st env c <> 0 then exec_block st env t else exec_block st env e
  | While (c, b) ->
      while eval_expr st env c <> 0 do
        exec_block st env b
      done
  | For (v, lo, hi, b) ->
      let lo_v = eval_expr st env lo in
      let hi_v = eval_expr st env hi in
      Hashtbl.replace env v lo_v;
      let rec loop () =
        let i = Hashtbl.find env v in
        if i < hi_v then begin
          exec_block st env b;
          Hashtbl.replace env v (Word.add (Hashtbl.find env v) 1);
          loop ()
        end
      in
      loop ()
  | Print e ->
      let v = eval_expr st env e in
      st.out <- v :: st.out
  | Return (Some e) -> raise (Return_exc (eval_expr st env e))
  | Return None -> raise (Return_exc 0)
  | Expr e -> ignore (eval_expr st env e)

let run ?(fuel = 200_000_000) p =
  let n = max_sid p + 1 in
  let st =
    {
      program = p;
      arrays = Hashtbl.create 16;
      reads = Hashtbl.create 16;
      writes = Hashtbl.create 16;
      prof = Array.make (max n 1) 0;
      fuel;
      out = [];
      depth = 0;
    }
  in
  List.iter
    (fun a ->
      let data =
        match a.init with
        | Some d -> Array.map Word.norm (Array.copy d)
        | None -> Array.make a.size 0
      in
      Hashtbl.replace st.arrays a.aname data)
    p.arrays;
  let initial_fuel = fuel in
  ignore (call_func st p.entry []);
  let dump tbl =
    Hashtbl.fold (fun k v acc -> (k, !v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    outputs = List.rev st.out;
    steps = initial_fuel - st.fuel;
    profile = st.prof;
    array_reads = dump st.reads;
    array_writes = dump st.writes;
    final_arrays =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.arrays []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
  }

let ex_times r sid =
  if sid >= 0 && sid < Array.length r.profile then r.profile.(sid) else 0
