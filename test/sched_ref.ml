(* Reference list scheduler, binder and netlist generator: the
   straightforward implementations [Lp_sched.Sched.schedule],
   [Lp_bind.Bind.bind] and [Lp_rtl.Netlist.generate] replaced. The
   scheduler rescans every node and sorts the ready list at each control
   step, and re-derives each node's candidate kinds there; [max_live]
   rescans every edge at each step, and the mux count looks producers up
   in association lists.
   Kept only as the oracle of the differential tests (test_sched_diff),
   which require the fast versions to agree with these field for
   field. *)

module Dfg = Lp_ir.Dfg
module Digraph = Lp_graph.Digraph
module Resource = Lp_tech.Resource
module Resource_set = Lp_tech.Resource_set
module Sched = Lp_sched.Sched
module Bind = Lp_bind.Bind
module Netlist = Lp_rtl.Netlist

let min_latency dfg v =
  match Resource.candidates (Dfg.node_info dfg v).op with
  | [] -> 1
  | cands -> List.fold_left (fun acc (_, l) -> min acc l) max_int cands

let schedule dfg rs : Sched.t option =
  let g = Dfg.graph dfg in
  let n = Digraph.node_count g in
  if n = 0 then
    Some { Sched.dfg; start = [||]; kind = [||]; latency = [||]; length = 0 }
  else begin
    let cands_of v =
      List.filter
        (fun (k, _) -> Resource_set.count rs k > 0)
        (Resource.candidates (Dfg.node_info dfg v).op)
    in
    let feasible = ref true in
    for v = 0 to n - 1 do
      if cands_of v = [] then feasible := false
    done;
    if not !feasible then None
    else begin
      let priority =
        Lp_graph.Paths.longest_to_leaves g ~weight:(min_latency dfg)
      in
      let start = Array.make n (-1) in
      let kind = Array.make n Resource.Alu in
      let latency = Array.make n 1 in
      let unscheduled_preds = Array.init n (Digraph.in_degree g) in
      let ready_at = Array.make n 0 in
      let busy = Hashtbl.create 8 in
      List.iter
        (fun (k, cnt) -> Hashtbl.replace busy k (Array.make cnt 0))
        (Resource_set.bindings rs);
      let scheduled = ref 0 in
      let t = ref 0 in
      let guard = ref (10 * n * 64) in
      while !scheduled < n && !guard > 0 do
        decr guard;
        let ready =
          List.filter
            (fun v ->
              start.(v) < 0 && unscheduled_preds.(v) = 0 && ready_at.(v) <= !t)
            (Digraph.nodes g)
        in
        let ready =
          List.sort
            (fun a b -> compare (priority.(b), a) (priority.(a), b))
            ready
        in
        List.iter
          (fun v ->
            let rec try_kinds = function
              | [] -> ()
              | (k, lat) :: rest -> (
                  let insts = Hashtbl.find busy k in
                  let free = ref (-1) in
                  Array.iteri
                    (fun i until -> if !free < 0 && until <= !t then free := i)
                    insts;
                  match !free with
                  | -1 -> try_kinds rest
                  | i ->
                      insts.(i) <- !t + lat;
                      start.(v) <- !t;
                      kind.(v) <- k;
                      latency.(v) <- lat;
                      incr scheduled;
                      List.iter
                        (fun w ->
                          unscheduled_preds.(w) <- unscheduled_preds.(w) - 1;
                          if !t + lat > ready_at.(w) then
                            ready_at.(w) <- !t + lat)
                        (Digraph.succs g v))
            in
            try_kinds (cands_of v))
          ready;
        incr t
      done;
      assert (!scheduled = n);
      let length =
        Array.to_list (Array.init n (fun v -> start.(v) + latency.(v)))
        |> List.fold_left max 0
      in
      Some { Sched.dfg; start; kind; latency; length }
    end
  end

(* Per-kind pool of instances, in a hash table; the nodes of a segment
   are ordered by a polymorphic sort on (start, id) pairs. *)
type pool = {
  mutable count : int;
  mutable busy_until : int array;
  mutable busy_cycles : int array;
}

let bind segments : Bind.result =
  let pools : (Resource.kind, pool) Hashtbl.t = Hashtbl.create 8 in
  let pool_of k =
    match Hashtbl.find_opt pools k with
    | Some p -> p
    | None ->
        let p = { count = 0; busy_until = [||]; busy_cycles = [||] } in
        Hashtbl.add pools k p;
        p
  in
  let grow p =
    let count' = p.count + 1 in
    let until' = Array.make count' 0 in
    let cycles' = Array.make count' 0 in
    Array.blit p.busy_until 0 until' 0 p.count;
    Array.blit p.busy_cycles 0 cycles' 0 p.count;
    p.count <- count';
    p.busy_until <- until';
    p.busy_cycles <- cycles';
    count' - 1
  in
  let binding =
    Array.make (List.length segments) ([] : (int * Bind.instance) list)
  in
  List.iteri
    (fun seg_i { Bind.sched; times } ->
      (* Fresh segment: all instances idle again. *)
      Hashtbl.iter
        (fun _ p -> Array.fill p.busy_until 0 p.count 0)
        pools;
      (* Bind operations in increasing start-step order (ties by node
         id) — the control-step sweep of Fig. 4 line 2. *)
      let order =
        List.sort
          (fun a b -> compare (sched.Lp_sched.Sched.start.(a), a) (sched.Lp_sched.Sched.start.(b), b))
          (Lp_graph.Digraph.nodes (Lp_ir.Dfg.graph sched.Lp_sched.Sched.dfg))
      in
      let bound = ref [] in
      List.iter
        (fun v ->
          let k = sched.Lp_sched.Sched.kind.(v) in
          let t = sched.Lp_sched.Sched.start.(v) in
          let lat = sched.Lp_sched.Sched.latency.(v) in
          let p = pool_of k in
          (* Reuse the lowest-index instance idle at step [t] (the
             Glob/Loc-list test); instantiate a new one otherwise. *)
          let idx = ref (-1) in
          Array.iteri
            (fun i until -> if !idx < 0 && until <= t then idx := i)
            p.busy_until;
          let i = if !idx >= 0 then !idx else grow p in
          p.busy_until.(i) <- t + lat;
          p.busy_cycles.(i) <- p.busy_cycles.(i) + (lat * times);
          bound := (v, { Bind.res_kind = k; index = i }) :: !bound)
        order;
      binding.(seg_i) <- List.rev !bound)
    segments;
  let n_cyc =
    List.fold_left (fun acc (s : Bind.segment_schedule) -> acc + (s.Bind.sched.Lp_sched.Sched.length * s.Bind.times)) 0
      segments
  in
  let kinds =
    Hashtbl.fold (fun k p acc -> if p.count > 0 then (k, p) :: acc else acc)
      pools []
    |> List.sort (fun (a, _) (b, _) -> Resource.compare_kind a b)
  in
  let instances = List.map (fun (k, p) -> (k, p.count)) kinds in
  let geq =
    List.fold_left (fun acc (k, p) -> acc + (p.count * Resource.geq k)) 0 kinds
  in
  let busy =
    List.concat_map
      (fun (k, p) ->
        List.init p.count (fun i ->
            ({ Bind.res_kind = k; index = i }, p.busy_cycles.(i))))
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
  { Bind.instances; geq; utilization; n_cyc; busy; binding }


let max_live (sched : Sched.t) =
  let g = Dfg.graph sched.Sched.dfg in
  let best = ref 0 in
  for t = 0 to sched.Sched.length - 1 do
    let live = ref 0 in
    Digraph.iter_edges
      (fun u v ->
        if Sched.finish sched u <= t && sched.Sched.start.(v) > t then incr live)
      g;
    if !live > !best then best := !live
  done;
  !best

let generate (bind : Bind.result) segments : Netlist.t =
  let fus = bind.Bind.instances in
  let n_fus = List.fold_left (fun acc (_, n) -> acc + n) 0 fus in
  let pipeline_regs =
    List.fold_left (fun acc s -> max acc (max_live s.Bind.sched)) 0 segments
  in
  let mux_inputs = ref 0 in
  List.iteri
    (fun seg_i (s : Bind.segment_schedule) ->
      ignore s;
      let bound = bind.Bind.binding.(seg_i) in
      let feeders = Hashtbl.create 16 in
      List.iter
        (fun (v, (inst : Bind.instance)) ->
          let g =
            Dfg.graph (List.nth segments seg_i).Bind.sched.Sched.dfg
          in
          List.iter
            (fun u ->
              let key = (inst.Bind.res_kind, inst.Bind.index) in
              let srcs =
                Option.value ~default:[] (Hashtbl.find_opt feeders key)
              in
              let src =
                match List.assoc_opt u bound with
                | Some i -> (i.Bind.res_kind, i.Bind.index)
                | None -> (Resource.Mover, -1 - u)
              in
              if not (List.mem src srcs) then
                Hashtbl.replace feeders key (src :: srcs))
            (Digraph.preds g v))
        bound;
      Hashtbl.iter
        (fun _ srcs ->
          let extra = List.length srcs - 1 in
          if extra > 0 then mux_inputs := !mux_inputs + extra)
        feeders)
    segments;
  let fsm_states =
    List.fold_left (fun acc s -> acc + s.Bind.sched.Sched.length) 0 segments
  in
  {
    Netlist.fus;
    registers = n_fus + pipeline_regs;
    mux_inputs = !mux_inputs;
    fsm_states = max fsm_states 1;
  }
