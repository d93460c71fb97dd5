type var = string

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne

type unop = Neg | Bnot | Lnot

type expr =
  | Int of int
  | Var of var
  | Load of var * expr
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Call of string * expr list

type stmt = { sid : int; node : node }

and node =
  | Assign of var * expr
  | Store of var * expr * expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | For of var * expr * expr * stmt list
  | Print of expr
  | Return of expr option
  | Expr of expr

type array_decl = { aname : var; size : int; init : int array option }

type func = {
  fname : string;
  params : var list;
  locals : var list;
  body : stmt list;
}

type program = { arrays : array_decl list; funcs : func list; entry : string }

let binop_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | And -> "&"
  | Or -> "|"
  | Xor -> "^"
  | Shl -> "<<"
  | Shr -> ">>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq -> "=="
  | Ne -> "!="

let unop_to_string = function Neg -> "-" | Bnot -> "~" | Lnot -> "!"

let is_comparison = function
  | Lt | Le | Gt | Ge | Eq | Ne -> true
  | Add | Sub | Mul | Div | Mod | And | Or | Xor | Shl | Shr -> false

let op_of_binop : binop -> Lp_tech.Op.t = function
  | Add -> Lp_tech.Op.Add
  | Sub -> Lp_tech.Op.Sub
  | Mul -> Lp_tech.Op.Mul
  | Div -> Lp_tech.Op.Div
  | Mod -> Lp_tech.Op.Mod
  | And -> Lp_tech.Op.Band
  | Or -> Lp_tech.Op.Bor
  | Xor -> Lp_tech.Op.Bxor
  | Shl -> Lp_tech.Op.Shl
  | Shr -> Lp_tech.Op.Shr
  | Lt | Le | Gt | Ge | Eq | Ne -> Lp_tech.Op.Cmp

let op_of_unop : unop -> Lp_tech.Op.t = function
  | Neg -> Lp_tech.Op.Neg
  | Bnot -> Lp_tech.Op.Bnot
  | Lnot -> Lp_tech.Op.Cmp (* computed as [e == 0] *)

let find_func p name = List.find_opt (fun f -> f.fname = name) p.funcs

let find_array p name = List.find_opt (fun a -> a.aname = name) p.arrays

let number_program p =
  let next = ref 0 in
  let fresh () =
    let id = !next in
    incr next;
    id
  in
  let rec renum_stmt s =
    let sid = fresh () in
    let node =
      match s.node with
      | Assign _ | Store _ | Print _ | Return _ | Expr _ -> s.node
      | If (c, t, e) -> If (c, renum_block t, renum_block e)
      | While (c, b) -> While (c, renum_block b)
      | For (v, lo, hi, b) -> For (v, lo, hi, renum_block b)
    in
    { sid; node }
  and renum_block stmts = List.map renum_stmt stmts in
  let funcs = List.map (fun f -> { f with body = renum_block f.body }) p.funcs in
  ({ p with funcs }, !next)

let rec iter_stmts f stmts =
  List.iter
    (fun s ->
      f s;
      match s.node with
      | If (_, t, e) ->
          iter_stmts f t;
          iter_stmts f e
      | While (_, b) | For (_, _, _, b) -> iter_stmts f b
      | Assign _ | Store _ | Print _ | Return _ | Expr _ -> ())
    stmts

let fold_stmts f acc stmts =
  let acc = ref acc in
  iter_stmts (fun s -> acc := f !acc s) stmts;
  !acc

let stmt_count p =
  List.fold_left (fun acc f -> fold_stmts (fun n _ -> n + 1) acc f.body) 0 p.funcs

let max_sid p =
  List.fold_left
    (fun acc f -> fold_stmts (fun m s -> max m s.sid) acc f.body)
    (-1) p.funcs

let dedup l =
  List.rev
    (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] l)

let rec expr_vars_raw = function
  | Int _ -> []
  | Var v -> [ v ]
  | Load (_, i) -> expr_vars_raw i
  | Binop (_, a, b) -> expr_vars_raw a @ expr_vars_raw b
  | Unop (_, e) -> expr_vars_raw e
  | Call (_, args) -> List.concat_map expr_vars_raw args

let expr_vars e = dedup (expr_vars_raw e)

let rec expr_arrays_raw = function
  | Int _ | Var _ -> []
  | Load (a, i) -> a :: expr_arrays_raw i
  | Binop (_, x, y) -> expr_arrays_raw x @ expr_arrays_raw y
  | Unop (_, e) -> expr_arrays_raw e
  | Call (_, args) -> List.concat_map expr_arrays_raw args

let expr_arrays e = dedup (expr_arrays_raw e)

let rec expr_calls_raw = function
  | Int _ | Var _ -> []
  | Load (_, i) -> expr_calls_raw i
  | Binop (_, a, b) -> expr_calls_raw a @ expr_calls_raw b
  | Unop (_, e) -> expr_calls_raw e
  | Call (f, args) -> f :: List.concat_map expr_calls_raw args

let expr_calls e = dedup (expr_calls_raw e)

let rec expr_ops_onto e tail =
  match e with
  | Int _ | Var _ -> tail
  | Load (_, i) -> expr_ops_onto i (Lp_tech.Op.Load :: tail)
  | Binop (op, a, b) -> expr_ops_onto a (expr_ops_onto b (op_of_binop op :: tail))
  | Unop (op, e) -> expr_ops_onto e (op_of_unop op :: tail)
  | Call (_, args) -> List.fold_right expr_ops_onto args tail

let expr_ops e = expr_ops_onto e []
