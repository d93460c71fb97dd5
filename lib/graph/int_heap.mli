(** Binary min-heap over ints in a fixed-capacity array: pushing and
    popping allocate nothing. *)

type t

val create : int -> t
(** [create capacity] is an empty heap with room for [capacity]
    elements. *)

val length : t -> int
val is_empty : t -> bool

val push : t -> int -> unit
(** @raise Invalid_argument when the heap holds [capacity] elements. *)

val top : t -> int
(** The smallest element. @raise Invalid_argument on an empty heap. *)

val pop : t -> int
(** Remove and return the smallest element.
    @raise Invalid_argument on an empty heap. *)
