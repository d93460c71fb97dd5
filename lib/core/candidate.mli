(** Evaluation of one (cluster, resource set) pair — the body of the
    Fig. 1 loop, lines 6–12: list-schedule the cluster's segments under
    the set, bind (Fig. 4), compute [U_R^core] and [GEQ_RS], compare
    against [U_uP^core], and derive the rough ASIC energy estimate of
    line 11. *)

type t = {
  cluster : Lp_cluster.Cluster.t;
  rset : Lp_tech.Resource_set.t;
  segments : Lp_bind.Bind.segment_schedule list;
  bind : Lp_bind.Bind.result;
  netlist : Lp_rtl.Netlist.t;
  cells : int;  (** synthesised cell estimate of the core *)
  u_asic : float;  (** [U_R^core] *)
  u_up : float;  (** [U_uP^core] for this cluster *)
  asic_cycles : int;  (** profiled cycles on the ASIC core *)
  up_cycles : int;  (** profiled cycles the cluster costs on the uP *)
  e_asic_rough_j : float;
      (** line 11: [U_R * sum(P_av * N_cyc * T_cyc)] *)
  e_trans_j : float;  (** from pre-selection (Fig. 3) *)
}

type scheduler =
  | List_sched  (** the paper's resource-constrained list schedule *)
  | Fds of float
      (** force-directed at [stretch * list-critical-path] latency —
          the time-constrained baseline of the scheduling ablation *)

val evaluate :
  ?scheduler:scheduler ->
  profile:int array ->
  e_trans_j:float ->
  Lp_cluster.Cluster.t ->
  Lp_tech.Resource_set.t ->
  t option
(** [None] when the cluster cannot be lowered (calls), the set cannot
    execute some operation, or the cluster never executes. The
    [scheduler] (default {!List_sched}) decides control steps; binding,
    utilisation and hardware estimation are identical either way. *)

(** {2 Per-cluster preparation}

    Of one evaluation, the segment DFGs and the uP utilisation
    [U_uP^core] depend on the cluster and the profile but not on the
    resource set. A flow evaluates each cluster under every designer
    set, so it prepares the cluster once and evaluates the prepared
    value per set. *)

type prepared
(** A cluster's segment DFGs with their execution counts, and its
    [U_uP^core] and uP cycles. Read-only once built: one value may be
    evaluated from several domains at once. *)

val prepare : profile:int array -> Lp_cluster.Cluster.t -> prepared

val evaluate_prepared :
  ?scheduler:scheduler ->
  e_trans_j:float ->
  prepared ->
  Lp_tech.Resource_set.t ->
  t option
(** [evaluate_prepared ~e_trans_j (prepare ~profile c) rs] equals
    [evaluate ~profile ~e_trans_j c rs]. *)

val beats_up : t -> bool
(** The line-9 test: [U_R^core > U_uP^core]. *)

val speedup : t -> float
(** [up_cycles / asic_cycles]; > 1 when the ASIC also runs faster. *)

val pp : Format.formatter -> t -> unit
