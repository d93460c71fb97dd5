(** Hardware resource (functional-unit) types of the ASIC datapath.

    A resource type corresponds to the paper's [rs_pi]: it carries a
    hardware effort in gate equivalents [GEQ(rs_pi)], an average power
    [P_av^rs] and a minimum cycle time [T_cyc^rs] (Fig. 1, line 11). An
    operation may be executable on several types of increasing size; the
    binding algorithm (Fig. 4) walks that candidate list smallest-first
    ([Sorted_RS_List]). *)

type kind =
  | Mover  (** register-to-register transfer path *)
  | Comparator
  | Logic_unit
  | Adder
  | Shifter
  | Alu  (** full ALU: arithmetic + logic + compare + (slow) shift *)
  | Multiplier
  | Divider
  | Mem_port  (** port to the shared memory / local buffer *)

val all_kinds : kind list

val kind_index : kind -> int
(** Position of the kind in {!all_kinds}: a dense index for per-kind
    arrays. *)

val n_kinds : int
(** [List.length all_kinds]. *)

val equal_kind : kind -> kind -> bool

val compare_kind : kind -> kind -> int

val kind_to_string : kind -> string

val kind_of_string : string -> kind option

val pp_kind : Format.formatter -> kind -> unit

val geq : kind -> int
(** Hardware effort of one instance, in gate equivalents (the paper's
    "cells"). *)

val avg_power_w : kind -> float
(** [P_av^rs]: average power while the resource is clocked, watts. *)

val cycle_time_s : kind -> float
(** [T_cyc^rs]: minimum cycle time the resource can run at, seconds. *)

val candidates : Op.t -> (kind * int) list
(** [candidates op] lists the resource types able to execute [op]
    together with the latency in cycles on that type, sorted by
    increasing {!geq} — this is exactly the paper's [Sorted_RS_List]
    (Fig. 4 line 5: "sorted according to the increasing size of a
    resource"). The list is never empty. *)

val latency : kind -> Op.t -> int option
(** [latency k op] is the cycle count of [op] on kind [k], or [None]
    when [k] cannot execute [op]. *)

val can_execute : kind -> Op.t -> bool
