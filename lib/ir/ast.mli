(** Behavioural intermediate representation.

    This is the "behavioral description of an application" that enters
    the partitioning process (paper, Section 3.2): structured statements
    over 32-bit scalars and global arrays. Arrays model the shared main
    memory of Fig. 2a — they are the only state visible to both the uP
    core and an ASIC core; scalars are register-allocated and private to
    a function activation.

    Every statement carries a unique id ([sid]) dense within its
    program, assigned by {!number_program}. Statement ids are how the
    profiler ([#ex_times]), the cluster decomposition and the
    partitioner refer to program points. *)

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
  | Int of int  (** 32-bit immediate (normalised by the builder) *)
  | Var of var
  | Load of var * expr  (** [Load (a, i)] reads [a.(i)] from shared memory *)
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Call of string * expr list  (** call of a value-returning function *)

type stmt = { sid : int; node : node }

and node =
  | Assign of var * expr
  | Store of var * expr * expr  (** [Store (a, i, v)]: [a.(i) <- v] *)
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | For of var * expr * expr * stmt list
      (** [For (v, lo, hi, body)]: [v] from [lo] while [v < hi], step 1 *)
  | Print of expr  (** observable output, the differential-test anchor *)
  | Return of expr option
  | Expr of expr  (** expression evaluated for effect (function call) *)

type array_decl = {
  aname : var;
  size : int;  (** element count; elements are 32-bit words *)
  init : int array option;  (** optional initial contents *)
}

type func = {
  fname : string;
  params : var list;
  locals : var list;  (** scalars; parameters are implicitly local too *)
  body : stmt list;
}

type program = {
  arrays : array_decl list;  (** global shared-memory arrays *)
  funcs : func list;
  entry : string;  (** name of the entry function, usually "main" *)
}

val binop_to_string : binop -> string
val unop_to_string : unop -> string

val is_comparison : binop -> bool

val op_of_binop : binop -> Lp_tech.Op.t
(** Datapath operation class a binary operator lowers to (comparisons
    all map to {!Lp_tech.Op.Cmp}). *)

val op_of_unop : unop -> Lp_tech.Op.t

val find_func : program -> string -> func option
val find_array : program -> var -> array_decl option

val number_program : program -> program * int
(** [number_program p] rewrites [p] with dense statement ids
    [0 .. n - 1] (preorder over functions in declaration order) and
    returns [n]. All analyses assume a numbered program. *)

val iter_stmts : (stmt -> unit) -> stmt list -> unit
(** Preorder traversal of a statement forest, descending into bodies. *)

val fold_stmts : ('acc -> stmt -> 'acc) -> 'acc -> stmt list -> 'acc

val stmt_count : program -> int
(** Total number of statements (after numbering: the id bound). *)

val max_sid : program -> int
(** Largest sid present, [-1] for an empty program. *)

val expr_vars : expr -> var list
(** Scalar variables read by an expression, without duplicates. *)

val expr_arrays : expr -> var list
(** Arrays read ([Load]) by an expression, without duplicates. *)

val expr_calls : expr -> string list
(** Function names called inside an expression, without duplicates. *)

val expr_ops : expr -> Lp_tech.Op.t list
(** Datapath operations an expression lowers to, in evaluation order
    (calls contribute nothing here; the callee is analysed separately). *)

val expr_ops_onto : expr -> Lp_tech.Op.t list -> Lp_tech.Op.t list
(** [expr_ops_onto e tail] is [expr_ops e @ tail], built in one pass. *)
