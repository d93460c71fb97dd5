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
  | Cmp
  | Move
  | Select
  | Load
  | Store

let all =
  [
    Add; Sub; Neg; Mul; Div; Mod; Shl; Shr; Band; Bor; Bxor; Bnot; Cmp; Move;
    Select; Load; Store;
  ]

let index = function
  | Add -> 0
  | Sub -> 1
  | Neg -> 2
  | Mul -> 3
  | Div -> 4
  | Mod -> 5
  | Shl -> 6
  | Shr -> 7
  | Band -> 8
  | Bor -> 9
  | Bxor -> 10
  | Bnot -> 11
  | Cmp -> 12
  | Move -> 13
  | Select -> 14
  | Load -> 15
  | Store -> 16

let count = List.length all

let equal (a : t) (b : t) = a = b

let compare (a : t) (b : t) = Stdlib.compare a b

let to_string = function
  | Add -> "add"
  | Sub -> "sub"
  | Neg -> "neg"
  | Mul -> "mul"
  | Div -> "div"
  | Mod -> "mod"
  | Shl -> "shl"
  | Shr -> "shr"
  | Band -> "and"
  | Bor -> "or"
  | Bxor -> "xor"
  | Bnot -> "not"
  | Cmp -> "cmp"
  | Move -> "move"
  | Select -> "select"
  | Load -> "load"
  | Store -> "store"

let pp ppf op = Format.pp_print_string ppf (to_string op)

let is_memory = function Load | Store -> true | _ -> false

let is_commutative = function
  | Add | Mul | Band | Bor | Bxor -> true
  | Sub | Neg | Div | Mod | Shl | Shr | Bnot | Cmp | Move | Select | Load
  | Store ->
      false
