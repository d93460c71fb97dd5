module Bind = Lp_bind.Bind
module Sched = Lp_sched.Sched
module Resource = Lp_tech.Resource
module Op = Lp_tech.Op
module Cmos6 = Lp_tech.Cmos6

let activity_of_op : Op.t -> float = function
  | Op.Mul -> 0.55
  | Op.Div | Op.Mod -> 0.50
  | Op.Add | Op.Sub | Op.Neg -> 0.35
  | Op.Shl | Op.Shr -> 0.30
  | Op.Load | Op.Store -> 0.30
  | Op.Band | Op.Bor | Op.Bxor | Op.Bnot -> 0.25
  | Op.Cmp -> 0.25
  | Op.Move | Op.Select -> 0.15

let idle_activity = 0.08
let reg_activity = 0.25
let mux_activity = 0.20
let fsm_activity = 0.30

let estimate (_bind : Bind.result) segments (net : Netlist.t) =
  let eg = Cmos6.gate_switch_energy_j in
  let total_fu_geq =
    List.fold_left (fun acc (k, n) -> acc + (n * Resource.geq k)) 0
      net.Netlist.fus
  in
  (* Per-cycle energy of the storage/steering/control fabric — it
     toggles every cycle the core is clocked. *)
  let fabric_per_cycle =
    (float_of_int (net.Netlist.registers * Netlist.reg_geq) *. reg_activity
    +. float_of_int (net.Netlist.mux_inputs * Netlist.mux_slice_geq)
       *. mux_activity
    +. float_of_int (net.Netlist.fsm_states * Netlist.fsm_state_geq)
       *. fsm_activity)
    *. eg
  in
  let seg_energy (s : Bind.segment_schedule) =
    let sched = s.Bind.sched in
    if sched.Sched.length = 0 then 0.0
    else begin
      (* Active share: each operation toggles its unit at the activity
         of its class for its latency. *)
      let per_exec_active = ref 0.0 in
      let active_geq_cycles = ref 0.0 in
      Array.iteri
        (fun v lat ->
          let geq = float_of_int (Resource.geq sched.Sched.kind.(v)) in
          let gcyc = geq *. float_of_int lat in
          active_geq_cycles := !active_geq_cycles +. gcyc;
          let activity = activity_of_op (Lp_ir.Dfg.op sched.Sched.dfg v) in
          per_exec_active := !per_exec_active +. (activity *. gcyc *. eg))
        sched.Sched.latency;
      (* Idle share: every clocked-but-unused gate equivalent glitches
         at [idle_activity] — the "wasted energy" of Eq. (2). *)
      let total_geq_cycles =
        float_of_int total_fu_geq *. float_of_int sched.Sched.length
      in
      let idle_geq_cycles =
        Float.max 0.0 (total_geq_cycles -. !active_geq_cycles)
      in
      !per_exec_active
      +. (idle_geq_cycles *. idle_activity *. eg)
      +. (fabric_per_cycle *. float_of_int sched.Sched.length)
    end
  in
  List.fold_left
    (fun acc s -> acc +. (seg_energy s *. float_of_int s.Bind.times))
    0.0 segments

let average_power_w ~energy_j ~cycles =
  if cycles <= 0 then 0.0
  else energy_j /. (float_of_int cycles *. Cmos6.clock_period_s)
