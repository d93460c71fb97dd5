(** Operation-level dataflow-graph lowering.

    Builds the graph [G = {V, E}] of Fig. 1, step 1 — restricted to one
    straight-line {e segment} (the unit the list scheduler works on: a
    basic block's statements plus the branch/bound expressions evaluated
    with it). Nodes are datapath operations ({!Lp_tech.Op.t}); edges are
    data dependences plus conservative per-array memory-ordering
    dependences (store-store, store-load, load-store).

    Scalars read before being defined in the segment are inputs: they
    create no node and arrive with zero latency, mirroring operands held
    in datapath registers.

    {2 Layout}

    A DFG is frozen once built: flat arrays indexed by node id, with
    both adjacencies in compressed rows. Node ids number the operations
    in lowering order, and every edge goes from an existing node into
    the node being created — except into a [print]'s transfer node,
    which is numbered before its operand is lowered. That node is a sink
    (no operation reads a print), so every edge [u -> v] has [u < v] or
    ends in a sink: one descending id loop sees each successor's final
    value (sinks need none), and one ascending loop that pushes along
    successors sees each predecessor's. The fields are shared, not
    copied: read them, never write them. *)

type t = private {
  ops : Lp_tech.Op.t array;  (** operation of each node *)
  arrays : string option array;  (** for [Load]/[Store]: the array accessed *)
  pred_off : int array;
      (** [node_count + 1] offsets: the predecessors of [v] are
          [pred.(pred_off.(v))] .. [pred.(pred_off.(v + 1) - 1)] *)
  pred : int array;  (** each node's predecessors, in edge-creation order *)
  succ_off : int array;  (** as [pred_off], for [succ] *)
  succ : int array;  (** each node's successors, in edge-creation order *)
}

val node_count : t -> int

val edge_count : t -> int

val op : t -> int -> Lp_tech.Op.t

val array : t -> int -> string option

val ops : t -> Lp_tech.Op.t list
(** Operation labels by node id order. *)

val preds : t -> int -> int list
(** Predecessors of a node, in edge-creation order (no duplicates). *)

val succs : t -> int -> int list
(** Successors of a node, in edge-creation order — ascending, as every
    edge but a print's enters the newest node. *)

val in_degree : t -> int -> int

val out_degree : t -> int -> int

val iter_edges : (int -> int -> unit) -> t -> unit
(** Every edge [u -> v], by ascending [u], then in [succs] order. *)

val longest_to_sinks : t -> weight:(int -> int) -> int array
(** Per node, the heaviest path from it to a sink, counting the weights
    of both ends. *)

val longest_from_sources : t -> weight:(int -> int) -> int array
(** Per node, the heaviest path into it from a source, not counting the
    node itself: its earliest start when each node runs for [weight]
    steps. *)

val of_segment : Ast.expr list -> Ast.stmt list -> t option
(** [of_segment exprs stmts] lowers the given bare expressions (branch
    conditions, loop bounds) followed by the straight-line statements.
    Returns [None] when the segment cannot run on an ASIC datapath
    (it contains a function call).
    @raise Invalid_argument if [stmts] contains control flow — segments
    are straight-line by construction. *)

val of_segment_exn : Ast.expr list -> Ast.stmt list -> t
(** @raise Invalid_argument when {!of_segment} would return [None]. *)

val pp : Format.formatter -> t -> unit
