(** A small dependency-free JSON value type with parser and printer:
    the one JSON representation of the repo. [Lp_report.Export], the
    service wire protocol and the bench harness build {!t} values and
    print them here.

    Printing is {e compact and canonical}: no whitespace, object fields
    in the order given, integers as decimal literals, floats with
    [%.6g] ([null] when not finite). Because a ≤6-significant-digit
    decimal survives a decimal→double→decimal round trip exactly,
    parsing a printed document and printing it again reproduces the
    original bytes — so a client that re-prints a [run] payload it
    received prints exactly what [lowpart run --json] prints. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

exception Parse_error of string
(** Raised by {!of_string} with a message carrying the byte offset. *)

val of_string : string -> t
(** Parse one JSON document (trailing whitespace allowed, anything else
    after the value is an error). Numbers without [.], [e] or [E] that
    fit in [int] parse as {!Int}; everything else as {!Float}.
    [\uXXXX] escapes (including surrogate pairs) decode to UTF-8.
    @raise Parse_error on malformed input. *)

val parse : string -> (t, string) result
(** {!of_string} with the error as a value. *)

val to_string : t -> string
(** Compact canonical printing (see above). Non-finite floats print as
    [null] — JSON has no representation for them. *)

val to_channel : out_channel -> t -> unit

val equal : t -> t -> bool
(** Structural equality, except numbers compare by numeric value
    ([Int 2] = [Float 2.]) — the unavoidable ambiguity of JSON's single
    number type. Object fields compare order-insensitively. *)

(** {2 Accessors}

    All return [None] (or the given default) on a type mismatch, so
    protocol code can validate without try/with pyramids. *)

val member : string -> t -> t option
(** Field of an {!Assoc}; [None] for absent fields or non-objects. *)

val to_bool_opt : t -> bool option
val to_int_opt : t -> int option
(** Accepts {!Int}, and {!Float} when integral. *)

val to_float_opt : t -> float option
(** Accepts {!Float} and {!Int}. *)

val to_string_opt : t -> string option
val to_list_opt : t -> t list option
val to_assoc_opt : t -> (string * t) list option

val string_field : t -> string -> string option
val int_field : t -> string -> int option
val float_field : t -> string -> float option
val bool_field : t -> string -> bool option
(** [x_field obj name] = [member name obj |> to_x_opt]. *)
