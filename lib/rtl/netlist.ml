module Bind = Lp_bind.Bind
module Sched = Lp_sched.Sched
module Resource = Lp_tech.Resource
module Dfg = Lp_ir.Dfg

type t = {
  fus : (Resource.kind * int) list;
  registers : int;
  mux_inputs : int;
  fsm_states : int;
}

let reg_geq = 220
let mux_slice_geq = 96
let fsm_state_geq = 12
let control_base_geq = 250

(* Values alive across a control-step boundary need a register: edge
   (u, v) holds one at every boundary t with finish(u) <= t < start(v).
   Each edge adds +1 where its interval opens and -1 where it closes, so
   one prefix sum over the steps gives the live count at each boundary;
   the registers needed are its maximum. O(V + E + L). *)
let max_live (sched : Sched.t) =
  let dfg = sched.Sched.dfg in
  let len = sched.Sched.length and start = sched.Sched.start in
  let delta = Array.make (len + 1) 0 in
  for u = 0 to Dfg.node_count dfg - 1 do
    let lo = max 0 (Sched.finish sched u) in
    for e = dfg.Dfg.succ_off.(u) to dfg.Dfg.succ_off.(u + 1) - 1 do
      let hi = min len start.(dfg.Dfg.succ.(e)) in
      if lo < hi then begin
        delta.(lo) <- delta.(lo) + 1;
        delta.(hi) <- delta.(hi) - 1
      end
    done
  done;
  let best = ref 0 and live = ref 0 in
  for t = 0 to len - 1 do
    live := !live + delta.(t);
    if !live > !best then best := !live
  done;
  !best

(* Mux slices of one segment: every distinct producer beyond the first
   that feeds an instance costs a 2:1 slice on that instance's input.
   A producer is the instance its node is bound to; a node with no
   binding counts as a producer of its own. Instances and producers get
   dense int codes; the consumers of each instance are linked through
   [next], and [seen] stamps a producer with the instance whose inputs
   last counted it. O(V + E). *)
let mux_slices (s : Bind.segment_schedule) bound =
  let dfg = s.Bind.sched.Sched.dfg in
  let n = Dfg.node_count dfg in
  let stride =
    1
    + List.fold_left
        (fun acc (_, (i : Bind.instance)) -> max acc i.Bind.index)
        0 bound
  in
  let n_insts = Resource.n_kinds * stride in
  let producer = Array.make n (-1) in
  let first = Array.make n_insts (-1) and next = Array.make n (-1) in
  List.iter
    (fun (v, (i : Bind.instance)) ->
      let c = (Resource.kind_index i.Bind.res_kind * stride) + i.Bind.index in
      producer.(v) <- c;
      next.(v) <- first.(c);
      first.(c) <- v)
    bound;
  let seen = Array.make (n_insts + n) (-1) in
  let slices = ref 0 in
  for c = 0 to n_insts - 1 do
    let distinct = ref 0 in
    let v = ref first.(c) in
    while !v >= 0 do
      for e = dfg.Dfg.pred_off.(!v) to dfg.Dfg.pred_off.(!v + 1) - 1 do
        let u = dfg.Dfg.pred.(e) in
        let src = if producer.(u) >= 0 then producer.(u) else n_insts + u in
        if seen.(src) <> c then begin
          seen.(src) <- c;
          incr distinct
        end
      done;
      v := next.(!v)
    done;
    if !distinct > 1 then slices := !slices + !distinct - 1
  done;
  !slices

let generate (bind : Bind.result) segments =
  let fus = bind.Bind.instances in
  let n_fus = List.fold_left (fun acc (_, n) -> acc + n) 0 fus in
  let pipeline_regs =
    List.fold_left (fun acc s -> max acc (max_live s.Bind.sched)) 0 segments
  in
  let mux_inputs = ref 0 in
  List.iteri
    (fun seg_i s ->
      mux_inputs := !mux_inputs + mux_slices s bind.Bind.binding.(seg_i))
    segments;
  let fsm_states =
    List.fold_left (fun acc s -> acc + s.Bind.sched.Sched.length) 0 segments
  in
  {
    fus;
    registers = n_fus + pipeline_regs;
    mux_inputs = !mux_inputs;
    fsm_states = max fsm_states 1;
  }

let cell_estimate t =
  let fu_cells =
    List.fold_left (fun acc (k, n) -> acc + (n * Resource.geq k)) 0 t.fus
  in
  fu_cells + (t.registers * reg_geq)
  + (t.mux_inputs * mux_slice_geq)
  + (t.fsm_states * fsm_state_geq)
  + control_base_geq

let pp ppf t =
  Format.fprintf ppf "@[<h>netlist: fus=[";
  List.iteri
    (fun i (k, n) ->
      if i > 0 then Format.pp_print_string ppf ", ";
      Format.fprintf ppf "%dx%s" n (Resource.kind_to_string k))
    t.fus;
  Format.fprintf ppf "] regs=%d mux=%d states=%d cells=%d@]" t.registers
    t.mux_inputs t.fsm_states (cell_estimate t)
