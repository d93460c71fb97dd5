(** Machine-readable exports of flow results: {!Lp_json} values for
    plotting, regression tracking and the service payloads, dot files
    for the graph artifacts. *)

val report : Lp_system.System.report -> Lp_json.t
(** One system-simulation report (per-core energies, cycle counts) as a
    JSON object — the payload of the service's [simulate] response. *)

val result : ?stages:bool -> Lp_core.Flow.result -> Lp_json.t
(** One application's result as a JSON object: per-core energy
    breakdown of both designs, cycle counts, savings, selected
    clusters, synthesised cores. Self-contained (no external schema).
    With [~stages:true], a trailing ["stages"] object ({!stages})
    follows; the default output carries no wall times, which are
    non-deterministic. Floats print with [%.6g]; a non-finite one
    (say, a saving over a zero-energy design) prints as [null]. *)

val result_json : ?stages:bool -> Lp_core.Flow.result -> string
(** [Lp_json.to_string (result ?stages r)]: the bytes of
    [lowpart run --json] per application and of the service's [run]
    payload, which the service builds from the same {!result} value. *)

val stages : Lp_core.Flow.result -> Lp_json.t
(** Just the ["stages"] object: per-stage wall seconds, one key per
    [Flow.all_stages] member (keyed by [Flow.stage_name]) in order. *)

val results : ?stages:bool -> Lp_core.Flow.result list -> Lp_json.t
(** A JSON array of {!result} objects. *)

val dfg_dot : Lp_ir.Dfg.t -> string
(** A segment DFG as graphviz, operation labels on the nodes. *)

val chain_dot : Lp_cluster.Cluster.chain -> string
(** The cluster chain as a linear graphviz chain (Fig. 2b). *)
