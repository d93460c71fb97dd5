(** Datapath operation classes.

    These are the node labels of the operation graph [G = {V, E}] the
    partitioner works on (paper, Fig. 1 step 1). Every behavioural-IR
    expression lowers to a DAG of these. *)

type t =
  | Add
  | Sub
  | Neg
  | Mul
  | Div
  | Mod
  | Shl
  | Shr
  | Band
  | Bor
  | Bxor
  | Bnot
  | Cmp  (** any relational comparison; result is 0/1 *)
  | Move  (** register/value copy *)
  | Select  (** 2-to-1 multiplexer after if-conversion *)
  | Load  (** array element read *)
  | Store  (** array element write *)

val all : t list

val index : t -> int
(** Position in {!all}, for op-indexed tables. *)

val count : int
(** [List.length all]. *)

val equal : t -> t -> bool

val compare : t -> t -> int

val to_string : t -> string

val pp : Format.formatter -> t -> unit

val is_memory : t -> bool
(** True for {!Load} and {!Store}. *)

val is_commutative : t -> bool
