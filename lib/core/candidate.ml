module Cluster = Lp_cluster.Cluster
module Bind = Lp_bind.Bind
module Sched = Lp_sched.Sched
module Resource = Lp_tech.Resource

type t = {
  cluster : Cluster.t;
  rset : Lp_tech.Resource_set.t;
  segments : Bind.segment_schedule list;
  bind : Bind.result;
  netlist : Lp_rtl.Netlist.t;
  cells : int;
  u_asic : float;
  u_up : float;
  asic_cycles : int;
  up_cycles : int;
  e_asic_rough_j : float;
  e_trans_j : float;
}

let ex_times profile sid =
  if sid >= 0 && sid < Array.length profile then profile.(sid) else 0

(* Line 11 of Fig. 1, taken literally: the utilisation rate scales the
   sum over resources of average power times active cycles times the
   resource's own minimum cycle time. A rough ranking signal only — the
   system simulation and the gate-level estimate give the real
   numbers. *)
let rough_energy (b : Bind.result) =
  let active =
    List.fold_left
      (fun acc ((inst : Bind.instance), cycles) ->
        acc
        +. Resource.avg_power_w inst.Bind.res_kind
           *. float_of_int cycles
           *. Resource.cycle_time_s inst.Bind.res_kind)
      0.0 b.Bind.busy
  in
  b.Bind.utilization *. active

type scheduler = List_sched | Fds of float

(* Everything about a cluster that no resource set changes: its segment
   DFGs with their profiled execution counts, and the uP side of the
   line-9 comparison. *)
type prepared = {
  p_cluster : Cluster.t;
  p_segments : (Sched.prepared * int) list option;
  p_u_up : float;
  p_up_cycles : int;
}

let prepare ~profile cluster =
  let unlowerable =
    { p_cluster = cluster; p_segments = None; p_u_up = 0.0; p_up_cycles = 0 }
  in
  if not (Cluster.asic_candidate cluster) then unlowerable
  else begin
    let segments = Cluster.segments cluster in
    let rec build acc = function
      | [] -> Some (List.rev acc)
      | (seg : Cluster.segment) :: rest -> (
          match
            Lp_ir.Dfg.of_segment seg.Cluster.seg_exprs seg.Cluster.seg_stmts
          with
          | None -> None
          | Some dfg ->
              build
                ((Sched.prepare dfg, ex_times profile seg.Cluster.anchor_sid)
                :: acc)
                rest)
    in
    match build [] segments with
    | None -> unlowerable
    | Some dfgs ->
        let u_up, up_cycles =
          Bind.Uproc_model.utilization (Cluster.dynamic_ops cluster ~profile)
        in
        {
          p_cluster = cluster;
          p_segments = Some dfgs;
          p_u_up = u_up;
          p_up_cycles = up_cycles;
        }
  end

let evaluate_prepared ?(scheduler = List_sched) ~e_trans_j p rset =
  match p.p_segments with
  | None -> None
  | Some dfgs -> (
      let schedule prepared =
        match scheduler with
        | List_sched -> Sched.schedule_prepared prepared rset
        | Fds stretch ->
            (* Feasibility still honours the designer set; the latency
               budget stretches the list scheduler's own makespan. *)
            let dfg = Sched.prepared_dfg prepared in
            Option.bind (Sched.schedule_prepared prepared rset) (fun list_sched ->
                let budget =
                  max (Lp_sched.Fds.min_latency dfg)
                    (int_of_float
                       (Float.ceil
                          (stretch *. float_of_int (max 1 list_sched.Sched.length))))
                in
                Lp_sched.Fds.schedule dfg ~latency:budget)
      in
      let rec build acc = function
        | [] -> Some (List.rev acc)
        | (graph, times) :: rest -> (
            match schedule graph with
            | None -> None
            | Some sched -> build ({ Bind.sched; times } :: acc) rest)
      in
      match build [] dfgs with
      | None -> None
      | Some seg_scheds ->
          let bind = Bind.bind seg_scheds in
          if bind.Bind.n_cyc = 0 then None
          else begin
            let netlist = Lp_rtl.Netlist.generate bind seg_scheds in
            Some
              {
                cluster = p.p_cluster;
                rset;
                segments = seg_scheds;
                bind;
                netlist;
                cells = Lp_rtl.Netlist.cell_estimate netlist;
                u_asic = bind.Bind.utilization;
                u_up = p.p_u_up;
                asic_cycles = bind.Bind.n_cyc;
                up_cycles = p.p_up_cycles;
                e_asic_rough_j = rough_energy bind;
                e_trans_j;
              }
          end)

let evaluate ?scheduler ~profile ~e_trans_j cluster rset =
  evaluate_prepared ?scheduler ~e_trans_j (prepare ~profile cluster) rset

let beats_up c = c.u_asic > c.u_up

let speedup c =
  if c.asic_cycles = 0 then 0.0
  else float_of_int c.up_cycles /. float_of_int c.asic_cycles

let pp ppf c =
  Format.fprintf ppf
    "@[<h>cluster %d on %a: U_R=%.3f U_uP=%.3f cells=%d cycles %d->%d \
     E_R~%a@]"
    c.cluster.Cluster.cid Lp_tech.Resource_set.pp c.rset c.u_asic c.u_up
    c.cells c.up_cycles c.asic_cycles Lp_tech.Units.pp_energy c.e_asic_rough_j
