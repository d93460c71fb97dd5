(** Bus-transfer energy estimation and cluster pre-selection
    (paper, Section 3.3 and Fig. 3).

    Moving a cluster [c_i] to the ASIC core implies extra traffic over
    the shared bus of Fig. 2a:

    - the uP deposits in memory every data item generated before [c_i]
      and used inside it — [|gen[C_pred] ∩ use[c_i]|] transfers
      (Fig. 3 step 1);
    - the ASIC deposits every item [c_i] generates that a later cluster
      uses — [|gen[c_i] ∩ use[C_succ]|] (step 3);
    - synergy: traffic between two {e adjacent} clusters that are both
      on the ASIC never crosses the bus, so it is subtracted
      (steps 2 and 4).

    A scalar costs one bus word; an array costs two (base + length of a
    reference — arrays themselves already live in the shared memory, so
    only the reference crosses; the element traffic is charged during
    execution by the memory-port model). Each transferred word is paid
    as one bus write (deposit) plus one bus read (download),
    [E_bus read/write] of Fig. 3 step 5.

    {b Cost model.} [gen[C_pred]] and [use[C_succ]] over a chain are a
    prefix and a suffix union. {!create} computes every cluster's sets
    (one call-summary fixpoint, see {!Lp_dataflow.Dataflow.of_chain}),
    the prefix union of the gen fields and the suffix union of the use
    fields once, in O(clusters) set unions. Each {!estimate} then costs
    a constant number of set intersections, O(|set|), independent of
    the chain length; {!cluster_sets}, {!later_use_scalars} and the
    cluster lookup of {!dynamic_work} are array reads. *)

type t
(** Pre-computed gen/use context for one program + cluster chain: the
    per-cluster sets, indexed by cid, and their prefix/suffix unions. *)

type estimate = {
  cid : int;
  n_up_to_mem : int;  (** [N_trans,uP->mem], in bus words *)
  n_asic_to_mem : int;  (** [N_trans,ASIC->mem], in bus words *)
  energy_j : float;  (** [E_trans,uP<->ASIC] *)
}

val create : Lp_ir.Ast.program -> Lp_cluster.Cluster.chain -> t
(** Raises [Invalid_argument] unless the chain's cids are its dense
    positions [0, 1, ..., n-1], as {!Lp_cluster.Cluster.decompose}
    assigns them. *)

val chain : t -> Lp_cluster.Cluster.chain

val cluster_sets : t -> int -> Lp_dataflow.Dataflow.sets
(** gen/use sets of a cluster by id. *)

val later_use_scalars : t -> int -> Lp_dataflow.Dataflow.Sset.t
(** [later_use_scalars t cid] is the union of the upward-exposed scalar
    uses of every cluster after [cid] in the chain — the scalars [cid]
    generates that can still be read later (live-out filtering). *)

val estimate : t -> in_asic:(int -> bool) -> int -> estimate
(** [estimate t ~in_asic cid] runs the Fig. 3 algorithm for cluster
    [cid], where [in_asic] tells which clusters are (tentatively) mapped
    to the ASIC core — the synergy test
    [implemented_in_ASIC_core(c_(i-1))] / [(c_(i+1))]. *)

val dynamic_work : t -> profile:int array -> int -> int
(** Profiled operation count of a cluster (cheap proxy for how much uP
    energy moving it could save). *)

val pre_select :
  t ->
  profile:int array ->
  n_max:int ->
  (Lp_cluster.Cluster.t * estimate) list
(** Fig. 1 line 5: keep at most [n_max] ASIC-candidate clusters, those
    with the best transfer-cost / profiled-work trade (lowest bus energy
    per unit of work first). Clusters that cannot run on a datapath
    (calls, returns) or that never execute are dropped. *)

val pp_estimate : Format.formatter -> estimate -> unit
