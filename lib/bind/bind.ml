module Resource = Lp_tech.Resource
module Op = Lp_tech.Op

type segment_schedule = { sched : Lp_sched.Sched.t; times : int }

type instance = { res_kind : Resource.kind; index : int }

type result = {
  instances : (Resource.kind * int) list;
  geq : int;
  utilization : float;
  n_cyc : int;
  busy : (instance * int) list;
  binding : (int * instance) list array;
}

(* Per-kind pool of instances; [busy_until] is per-segment scratch state
   (segments execute at disjoint times, so instances are reusable across
   segments), [busy_cycles] accumulates profiled usage. *)
type pool = {
  mutable count : int;
  mutable insts : instance array;
  mutable busy_until : int array;
  mutable busy_cycles : int array;
}

let bind segments =
  (* One pool per kind, indexed by [Resource.kind_index]: walking it in
     index order visits the kinds in [Resource.compare_kind] order. *)
  let pools =
    Array.init Resource.n_kinds (fun _ ->
        { count = 0; insts = [||]; busy_until = [||]; busy_cycles = [||] })
  in
  let grow p k =
    let count' = p.count + 1 in
    let extend a x =
      let a' = Array.make count' x in
      Array.blit a 0 a' 0 p.count;
      a'
    in
    p.insts <- extend p.insts { res_kind = k; index = p.count };
    p.busy_until <- extend p.busy_until 0;
    p.busy_cycles <- extend p.busy_cycles 0;
    p.count <- count';
    count' - 1
  in
  let binding =
    Array.make (List.length segments) ([] : (int * instance) list)
  in
  List.iteri
    (fun seg_i { sched; times } ->
      (* Fresh segment: all instances idle again. *)
      Array.iter (fun p -> Array.fill p.busy_until 0 p.count 0) pools;
      (* Bind operations in increasing start-step order (ties by node
         id) — the control-step sweep of Fig. 4 line 2 — laid out by a
         counting sort over the start steps. *)
      let start = sched.Lp_sched.Sched.start in
      let n = Array.length start in
      let steps = 1 + Array.fold_left max (-1) start in
      let first = Array.make (steps + 1) 0 in
      Array.iter (fun t -> first.(t + 1) <- first.(t + 1) + 1) start;
      for t = 1 to steps do
        first.(t) <- first.(t) + first.(t - 1)
      done;
      let order = Array.make n 0 in
      for v = 0 to n - 1 do
        let t = start.(v) in
        order.(first.(t)) <- v;
        first.(t) <- first.(t) + 1
      done;
      let bound = ref [] in
      for j = 0 to n - 1 do
        let v = order.(j) in
        let k = sched.Lp_sched.Sched.kind.(v) in
        let t = start.(v) in
        let lat = sched.Lp_sched.Sched.latency.(v) in
        let p = pools.(Resource.kind_index k) in
        (* Reuse the lowest-index instance idle at step [t] (the
           Glob/Loc-list test); instantiate a new one otherwise. *)
        let i = ref 0 in
        while !i < p.count && p.busy_until.(!i) > t do
          incr i
        done;
        let i = if !i < p.count then !i else grow p k in
        p.busy_until.(i) <- t + lat;
        p.busy_cycles.(i) <- p.busy_cycles.(i) + (lat * times);
        bound := (v, p.insts.(i)) :: !bound
      done;
      binding.(seg_i) <- List.rev !bound)
    segments;
  let n_cyc =
    List.fold_left (fun acc s -> acc + (s.sched.Lp_sched.Sched.length * s.times)) 0
      segments
  in
  let kinds =
    List.filter_map
      (fun k ->
        let p = pools.(Resource.kind_index k) in
        if p.count > 0 then Some (k, p) else None)
      Resource.all_kinds
  in
  let instances = List.map (fun (k, p) -> (k, p.count)) kinds in
  let geq =
    List.fold_left (fun acc (k, p) -> acc + (p.count * Resource.geq k)) 0 kinds
  in
  let busy =
    List.concat_map
      (fun (_, p) -> List.init p.count (fun i -> (p.insts.(i), p.busy_cycles.(i))))
      kinds
  in
  let n_inst = List.length busy in
  let utilization =
    if n_inst = 0 || n_cyc = 0 then 0.0
    else
      List.fold_left
        (fun acc (_, cycles) ->
          acc +. (float_of_int cycles /. float_of_int n_cyc))
        0.0 busy
      /. float_of_int n_inst
  in
  { instances; geq; utilization; n_cyc; busy; binding }

let pp_result ppf r =
  Format.fprintf ppf "@[<v>binding: U_R=%.3f GEQ=%d N_cyc=%d" r.utilization
    r.geq r.n_cyc;
  List.iter
    (fun ({ res_kind; index }, cycles) ->
      Format.fprintf ppf "@,  %a#%d busy %d cycles" Resource.pp_kind res_kind
        index cycles)
    r.busy;
  Format.fprintf ppf "@]"

module Uproc_model = struct
  let inventory =
    [
      Resource.Alu;
      Resource.Shifter;
      Resource.Multiplier;
      Resource.Divider;
      Resource.Mem_port;
      Resource.Mover;
    ]

  let resource_of_op : Op.t -> Resource.kind = function
    | Op.Add | Op.Sub | Op.Neg | Op.Band | Op.Bor | Op.Bxor | Op.Bnot | Op.Cmp
      ->
        Resource.Alu
    | Op.Shl | Op.Shr -> Resource.Shifter
    | Op.Mul -> Resource.Multiplier
    | Op.Div | Op.Mod -> Resource.Divider
    | Op.Load | Op.Store -> Resource.Mem_port
    | Op.Move | Op.Select -> Resource.Mover

  (* SPARClite-class integer timings. *)
  let op_cycles : Op.t -> int = function
    | Op.Add | Op.Sub | Op.Neg | Op.Band | Op.Bor | Op.Bxor | Op.Bnot
    | Op.Cmp | Op.Move | Op.Select | Op.Shl | Op.Shr ->
        1
    | Op.Mul -> 5
    | Op.Div | Op.Mod -> 20
    | Op.Load | Op.Store -> 2

  let control_overhead_cycles = 2

  let utilization segments =
    let busy = Array.make Resource.n_kinds 0 in
    let total = ref 0 in
    List.iter
      (fun (ops, times) ->
        total := !total + (control_overhead_cycles * times);
        List.iter
          (fun op ->
            let rs = Resource.kind_index (resource_of_op op) in
            let c = op_cycles op * times in
            total := !total + c;
            busy.(rs) <- busy.(rs) + c)
          ops)
      segments;
    if !total = 0 then (0.0, 0)
    else begin
      let n = List.length inventory in
      let u =
        List.fold_left
          (fun acc rs ->
            let b = busy.(Resource.kind_index rs) in
            acc +. (float_of_int b /. float_of_int !total))
          0.0 inventory
        /. float_of_int n
      in
      (u, !total)
    end
end
