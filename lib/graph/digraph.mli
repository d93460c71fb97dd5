(** Mutable directed graph with densely numbered nodes.

    Nodes are integers allocated sequentially from 0 by {!add_node}; they
    are never recycled. Edges are ordered pairs; parallel edges are
    collapsed ({!add_edge} is idempotent). The structure keeps both
    successor and predecessor adjacency so forward and backward traversals
    are O(out-degree) / O(in-degree); {!add_edge} and {!mem_edge} are
    amortised O(1), whatever the degree. Reading the neighbours of a
    node with fewer than 16 of them allocates nothing; a wider node's
    list is reversed on each read. Concurrent reads are safe.

    The cluster chain's graph is one, and so is the reference lowering
    the tests compare segment DFGs against; the DFGs themselves are
    frozen flat arrays ([Lp_ir.Dfg]). *)

type t

val create : unit -> t

val add_node : t -> int
(** [add_node g] allocates and returns a fresh node id. *)

val add_nodes : t -> int -> int list
(** [add_nodes g n] allocates [n] fresh nodes and returns their ids in
    increasing order. *)

val add_edge : t -> int -> int -> unit
(** [add_edge g u v] inserts edge [u -> v]. Inserting an existing edge is
    a no-op. @raise Invalid_argument if [u] or [v] is not a node. *)

val remove_edge : t -> int -> int -> unit
(** [remove_edge g u v] deletes edge [u -> v] if present. *)

val mem_edge : t -> int -> int -> bool

val node_count : t -> int

val edge_count : t -> int

val nodes : t -> int list
(** All node ids in increasing order. *)

val succs : t -> int -> int list
(** Successors of a node, in insertion order. *)

val preds : t -> int -> int list
(** Predecessors of a node, in insertion order. *)

val out_degree : t -> int -> int

val in_degree : t -> int -> int

val iter_nodes : (int -> unit) -> t -> unit

val iter_edges : (int -> int -> unit) -> t -> unit

val fold_nodes : ('acc -> int -> 'acc) -> 'acc -> t -> 'acc

val roots : t -> int list
(** Nodes with no predecessor. *)

val leaves : t -> int list
(** Nodes with no successor. *)

val copy : t -> t

val transpose : t -> t
(** [transpose g] is a new graph with every edge reversed. *)

val pp : Format.formatter -> t -> unit
(** Human-readable adjacency dump, for debugging and error messages. *)
