(** Shared generators and helpers for the test suites. *)

val dag_gen : Lp_graph.Digraph.t QCheck.Gen.t
(** Random DAG: edges only from lower to higher node ids, so acyclic by
    construction. 1–40 nodes. *)

val digraph_gen : Lp_graph.Digraph.t QCheck.Gen.t
(** Random directed graph, cycles allowed. *)

val dag_arbitrary : Lp_graph.Digraph.t QCheck.arbitrary
val digraph_arbitrary : Lp_graph.Digraph.t QCheck.arbitrary

val expr_gen :
  vars:string list -> arrays:(string * int) list -> Lp_ir.Ast.expr QCheck.Gen.t
(** Random expression over the given scalars and arrays. Divisors are
    forced odd ([e | 1]) so evaluation cannot trap; array indices are
    masked into range (sizes must be powers of two). *)

val block_gen :
  vars:string list ->
  arrays:(string * int) list ->
  Lp_ir.Ast.stmt list QCheck.Gen.t
(** Random straight-line block (assignments, stores, prints). *)

val program_gen : Lp_ir.Ast.program QCheck.Gen.t
(** Random well-formed program: a handful of scalars, a small array,
    straight-line code plus bounded loops and branches, prints
    sprinkled in. Always validates; always terminates. *)

val program_arbitrary : Lp_ir.Ast.program QCheck.arbitrary

val check_outputs : string -> expected:int list -> actual:int list -> unit
(** Alcotest assertion on observable-output lists. *)

val corrupt_each_byte :
  string -> expected:string -> rerun:(unit -> string) -> unit
(** Fault injection on a persisted entry: for every byte position, write
    the entry back with one bit of that byte flipped, and then truncated
    to that length; after each, [rerun ()] must return [expected] and
    the file must hold the original bytes again. *)
