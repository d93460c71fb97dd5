(** Resource-constrained list scheduling (paper, Fig. 1 line 8:
    [do_list_schedule(c_i, rs_i)]).

    Operations of a segment DFG are assigned to control steps under the
    instance caps of a designer resource set. Priority is the classic
    longest-path-to-sink (critical-path) metric; among ready operations
    the most critical goes first, and each operation picks the smallest
    (cheapest, most energy-efficient) compatible resource kind with a
    free instance — the same smallest-first policy the binder's
    [Sorted_RS_List] uses. Multi-cycle operations occupy their instance
    for their whole latency. *)

type t = {
  dfg : Lp_ir.Dfg.t;
  start : int array;  (** control step each operation starts in *)
  kind : Lp_tech.Resource.kind array;  (** resource kind executing it *)
  latency : int array;  (** cycles on that kind *)
  length : int;  (** schedule length in control steps (makespan) *)
}

val schedule : Lp_ir.Dfg.t -> Lp_tech.Resource_set.t -> t option
(** [schedule dfg rs] list-schedules [dfg] under [rs]. [None] when some
    operation has no executable kind in [rs]. An empty DFG yields a
    schedule of length 0. *)

(** {2 One DFG under several resource sets}

    The flow schedules each segment DFG under every designer set. What
    does not depend on the set — each node's candidate kinds and minimum
    latency, its priority and its in-degree — is computed once by
    {!prepare}, which reads the DFG's flat rows without copying them. {!schedule_prepared} then keeps the
    nodes whose predecessors are all scheduled in one priority heap per
    class of operations that share a candidate list, merged at each
    step: O((V + E) log V + L * C) for V nodes, E edges, a schedule of L
    steps and the C (at most 8) operation classes. *)

type prepared
(** A DFG with its set-independent scheduling data. Read-only: one value
    may be scheduled from several domains at once. *)

val prepare : Lp_ir.Dfg.t -> prepared

val prepared_dfg : prepared -> Lp_ir.Dfg.t

val schedule_prepared : prepared -> Lp_tech.Resource_set.t -> t option
(** [schedule_prepared (prepare dfg) rs] is [schedule dfg rs]. *)

val asap : Lp_ir.Dfg.t -> int array
(** Unconstrained as-soon-as-possible start times (minimum latency per
    op over all kinds). *)

val alap : Lp_ir.Dfg.t -> length:int -> int array
(** As-late-as-possible start times against a deadline of [length]
    control steps. *)

val mobility : Lp_ir.Dfg.t -> int array
(** [alap - asap] slack with the critical-path deadline: 0 = critical. *)

val critical_path : Lp_ir.Dfg.t -> int
(** Minimum possible schedule length with unlimited resources. *)

val finish : t -> int -> int
(** [finish s v] is [start.(v) + latency.(v)]. *)

val ops_in_step : t -> int -> int list
(** Operations {e active} (occupying a resource) during a control
    step. *)

val pp : Format.formatter -> t -> unit
