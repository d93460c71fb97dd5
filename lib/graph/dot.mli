(** Graphviz (dot) rendering of directed graphs, for inspecting DFGs,
    cluster chains and netlist connectivity. *)

val render :
  ?name:string ->
  ?node_label:(int -> string) ->
  ?node_attrs:(int -> (string * string) list) ->
  nodes:int ->
  iter_edges:((int -> int -> unit) -> unit) ->
  unit ->
  string
(** [render ~nodes ~iter_edges ()] is a [digraph { ... }] document over
    the nodes [0 .. nodes - 1] and the edges [iter_edges] visits, in
    that order (such as [fun f -> Digraph.iter_edges f g]). [node_label]
    defaults to the node id; [node_attrs] adds attributes like
    [("shape", "box")] per node. Labels are escaped. *)

val escape : string -> string
(** Escape a label for a double-quoted dot string. *)
