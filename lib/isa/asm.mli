(** Assembler: symbolic labels to absolute instruction
    indices. The code generator emits {!item} streams; {!assemble}
    resolves them into an executable {!Isa.program}. *)

type item =
  | Label of string
  | Instr of Isa.instr  (** an instruction with no symbolic operand *)
  | Bnez_l of Isa.reg * string
  | Beqz_l of Isa.reg * string
  | Jmp_l of string
  | Jal_l of string

exception Error of string
(** Duplicate or undefined label. *)

val assemble :
  entry:string ->
  data_words:int ->
  symbols:(string * int) list ->
  item list ->
  Isa.program
(** [assemble ~entry ~data_words ~symbols items] resolves labels and
    produces the program; [entry] must be a defined label.
    @raise Error on label problems. *)
