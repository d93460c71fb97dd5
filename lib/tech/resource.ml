type kind =
  | Mover
  | Comparator
  | Logic_unit
  | Adder
  | Shifter
  | Alu
  | Multiplier
  | Divider
  | Mem_port

let all_kinds =
  [
    Mover; Comparator; Logic_unit; Adder; Shifter; Alu; Multiplier; Divider;
    Mem_port;
  ]

let kind_index = function
  | Mover -> 0
  | Comparator -> 1
  | Logic_unit -> 2
  | Adder -> 3
  | Shifter -> 4
  | Alu -> 5
  | Multiplier -> 6
  | Divider -> 7
  | Mem_port -> 8

let n_kinds = List.length all_kinds

let equal_kind (a : kind) (b : kind) = a = b

let compare_kind (a : kind) (b : kind) = Stdlib.compare a b

let kind_to_string = function
  | Mover -> "mover"
  | Comparator -> "cmp"
  | Logic_unit -> "logic"
  | Adder -> "adder"
  | Shifter -> "shifter"
  | Alu -> "alu"
  | Multiplier -> "mult"
  | Divider -> "div"
  | Mem_port -> "memport"

let kind_of_string s =
  List.find_opt (fun k -> kind_to_string k = s) all_kinds

let pp_kind ppf k = Format.pp_print_string ppf (kind_to_string k)

(* Gate-equivalent counts of 32-bit units in a 0.8u standard-cell
   library; within a small factor of published datapath generators. *)
let geq = function
  | Mover -> 150
  | Comparator -> 300
  | Logic_unit -> 350
  | Adder -> 450
  | Shifter -> 900
  | Alu -> 1400
  | Multiplier -> 6500
  | Divider -> 9000
  | Mem_port -> 600

let avg_power_w = function
  | Mover -> Units.mw 0.8
  | Comparator -> Units.mw 1.5
  | Logic_unit -> Units.mw 1.8
  | Adder -> Units.mw 2.5
  | Shifter -> Units.mw 3.5
  | Alu -> Units.mw 6.0
  | Multiplier -> Units.mw 28.0
  | Divider -> Units.mw 32.0
  | Mem_port -> Units.mw 8.0

let cycle_time_s = function
  | Mover -> Units.ns 15.0
  | Comparator -> Units.ns 20.0
  | Logic_unit -> Units.ns 15.0
  | Adder -> Units.ns 25.0
  | Shifter -> Units.ns 25.0
  | Alu -> Units.ns 30.0
  | Multiplier -> Units.ns 45.0
  | Divider -> Units.ns 50.0
  | Mem_port -> Units.ns 40.0

(* Candidate lists are kept explicitly sorted by increasing GEQ so the
   binder's first pick is the smallest (most energy-efficient) unit, as
   required by Fig. 4 of the paper. *)
let candidates op =
  let raw =
    match (op : Op.t) with
    | Add | Sub | Neg -> [ (Adder, 1); (Alu, 1) ]
    | Band | Bor | Bxor | Bnot -> [ (Logic_unit, 1); (Alu, 1) ]
    | Cmp -> [ (Comparator, 1); (Alu, 1) ]
    | Shl | Shr -> [ (Shifter, 1); (Alu, 2) ]
    | Mul -> [ (Multiplier, 2) ]
    | Div | Mod -> [ (Divider, 8) ]
    | Move | Select -> [ (Mover, 1); (Adder, 1); (Alu, 1) ]
    | Load | Store -> [ (Mem_port, 2) ]
  in
  List.sort (fun (a, _) (b, _) -> Stdlib.compare (geq a) (geq b)) raw

let latency k op = List.assoc_opt k (candidates op)

let can_execute k op = Option.is_some (latency k op)
