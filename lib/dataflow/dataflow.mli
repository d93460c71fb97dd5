(** gen/use dataflow sets over clusters.

    The bus-transfer estimation of Fig. 3 counts
    [|gen[C_pred] ∩ use[c_i]|]-style intersections, with [gen] and [use]
    "as defined in [Aho, Sethi, Ullman]": [use] is the set of data items
    a cluster may read before writing them (upward-exposed uses); [gen]
    is the set of data items it may write.

    Data items are the entry function's scalars and the global arrays.
    Function calls are summarised transitively: a call contributes the
    callee's (transitive) array reads/writes; callee scalars are private
    and never escape. *)

module Sset : Set.S with type elt = string

type sets = {
  use_scalars : Sset.t;
  gen_scalars : Sset.t;
  use_arrays : Sset.t;
  gen_arrays : Sset.t;
}

val empty : sets

val union : sets -> sets -> sets

val of_stmts : Lp_ir.Ast.program -> Lp_ir.Ast.stmt list -> sets
(** gen/use of a statement sequence (the program supplies array
    declarations and callee summaries). *)

val of_cluster : Lp_ir.Ast.program -> Lp_cluster.Cluster.t -> sets

val of_chain :
  Lp_ir.Ast.program -> Lp_cluster.Cluster.chain -> (int * sets) list
(** Sets for every cluster of a chain, keyed by cluster id, in chain
    order. Equal to {!of_cluster} on each cluster, but the call
    summaries are computed once for the whole chain, so the cost is
    linear in the chain's size rather than one whole-program fixpoint
    per cluster. *)

val func_summary : Lp_ir.Ast.program -> string -> Sset.t * Sset.t
(** [func_summary p f] is [(arrays_read, arrays_written)] by [f],
    including everything reachable through calls. Recursion is handled
    by a fixpoint. *)

val pp : Format.formatter -> sets -> unit
