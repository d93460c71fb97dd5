(* Reference DFG lowering, list scheduler, binder and netlist
   generator: the straightforward implementations [Lp_ir.Dfg.of_segment],
   [Lp_sched.Sched.schedule], [Lp_bind.Bind.bind] and
   [Lp_rtl.Netlist.generate] replaced. The lowering inserts each edge
   into a mutable [Digraph] that checks it for duplicates. The scheduler
   rescans every node and sorts the ready list at each control step,
   and re-derives each node's candidate kinds there; its priorities come
   from Kahn's topological sort. [max_live] rescans every edge at each
   step, and the mux count looks producers up in association lists.
   Kept only as the oracle of the differential tests (test_sched_diff),
   which require the fast versions to agree with these field for
   field. *)

module Dfg = Lp_ir.Dfg
module Digraph = Lp_graph.Digraph
module Int_heap = Lp_graph.Int_heap
module Op = Lp_tech.Op
module Resource = Lp_tech.Resource
module Resource_set = Lp_tech.Resource_set
module Sched = Lp_sched.Sched
module Bind = Lp_bind.Bind
module Netlist = Lp_rtl.Netlist

(* --- DFG lowering ---------------------------------------------------- *)

module Lowering = struct
  open Lp_ir.Ast

  type t = { g : Digraph.t; infos : (Op.t * string option) Lp_graph.Vec.t }

  exception Has_call

  type mem_state = {
    mutable last_store : int option;
    mutable loads_since : int list;
  }

  type builder = {
    dfg : t;
    env : (string, int) Hashtbl.t;
    mem : (string, mem_state) Hashtbl.t;
  }

  let new_node b ?array op =
    let v = Digraph.add_node b.dfg.g in
    Lp_graph.Vec.push b.dfg.infos (op, array);
    v

  let edge b src dst = Digraph.add_edge b.dfg.g src dst
  let edge_opt b src dst = match src with Some s -> edge b s dst | None -> ()

  let mem_state b a =
    match Hashtbl.find_opt b.mem a with
    | Some st -> st
    | None ->
        let st = { last_store = None; loads_since = [] } in
        Hashtbl.add b.mem a st;
        st

  let rec lower_expr b = function
    | Int _ -> None
    | Var v -> Hashtbl.find_opt b.env v
    | Load (a, i) ->
        let idx = lower_expr b i in
        let n = new_node b ~array:a Op.Load in
        edge_opt b idx n;
        let st = mem_state b a in
        edge_opt b st.last_store n;
        st.loads_since <- n :: st.loads_since;
        Some n
    | Binop (op, x, y) ->
        let nx = lower_expr b x in
        let ny = lower_expr b y in
        let n = new_node b (op_of_binop op) in
        edge_opt b nx n;
        edge_opt b ny n;
        Some n
    | Unop (op, e) ->
        let ne = lower_expr b e in
        let n = new_node b (op_of_unop op) in
        edge_opt b ne n;
        Some n
    | Call _ -> raise Has_call

  let lower_store b a i v =
    let idx = lower_expr b i in
    let value = lower_expr b v in
    let n = new_node b ~array:a Op.Store in
    edge_opt b idx n;
    edge_opt b value n;
    let st = mem_state b a in
    edge_opt b st.last_store n;
    List.iter (fun l -> edge b l n) st.loads_since;
    st.last_store <- Some n;
    st.loads_since <- []

  let lower_stmt b s =
    match s.node with
    | Assign (v, e) -> (
        match lower_expr b e with
        | Some n -> Hashtbl.replace b.env v n
        | None ->
            let n = new_node b Op.Move in
            (match e with
            | Var src -> edge_opt b (Hashtbl.find_opt b.env src) n
            | Int _ | Load _ | Binop _ | Unop _ | Call _ -> ());
            Hashtbl.replace b.env v n)
    | Store (a, i, v) -> lower_store b a i v
    | Print e ->
        let n = new_node b Op.Move in
        edge_opt b (lower_expr b e) n
    | Expr e -> ignore (lower_expr b e)
    | Return _ -> raise Has_call
    | If _ | While _ | For _ ->
        invalid_arg "Dfg.of_segment: control flow inside a segment"

  let of_segment exprs stmts =
    let b =
      {
        dfg = { g = Digraph.create (); infos = Lp_graph.Vec.create () };
        env = Hashtbl.create 32;
        mem = Hashtbl.create 8;
      }
    in
    match
      List.iter (fun e -> ignore (lower_expr b e)) exprs;
      List.iter (lower_stmt b) stmts
    with
    | () -> Some b.dfg
    | exception Has_call -> None
end

(* The Digraph a flat DFG describes. Adding each node's in-edges in
   order, nodes ascending, gives back the predecessor and successor
   lists in the flat rows' order. *)
let graph dfg =
  let g = Digraph.create () in
  ignore (Digraph.add_nodes g (Dfg.node_count dfg));
  for v = 0 to Dfg.node_count dfg - 1 do
    List.iter (fun u -> Digraph.add_edge g u v) (Dfg.preds dfg v)
  done;
  g

(* --- topological order and longest paths ------------------------------ *)

module Topo = struct
  let sort g =
    let n = Digraph.node_count g in
    let indeg = Array.init n (Digraph.in_degree g) in
    (* Kahn's algorithm over a min-heap, for the smallest-id tie-break. *)
    let heap = Int_heap.create n in
    Array.iteri (fun v d -> if d = 0 then Int_heap.push heap v) indeg;
    let rec loop acc seen =
      if Int_heap.is_empty heap then
        if seen = n then Some (List.rev acc) else None
      else begin
        let v = Int_heap.pop heap in
        List.iter
          (fun w ->
            indeg.(w) <- indeg.(w) - 1;
            if indeg.(w) = 0 then Int_heap.push heap w)
          (Digraph.succs g v);
        loop (v :: acc) (seen + 1)
      end
    in
    loop [] 0

  let sort_exn g =
    match sort g with
    | Some order -> order
    | None -> invalid_arg "Topo.sort_exn: graph has a cycle"

  let is_dag g = Option.is_some (sort g)

  let levels g =
    let order = sort_exn g in
    let level = Array.make (Digraph.node_count g) 0 in
    List.iter
      (fun v ->
        List.iter
          (fun w -> if level.(v) + 1 > level.(w) then level.(w) <- level.(v) + 1)
          (Digraph.succs g v))
      order;
    level
end

module Paths = struct
  let longest_from_roots g ~weight =
    let dist = Array.make (Digraph.node_count g) 0 in
    let order = Topo.sort_exn g in
    List.iter
      (fun v ->
        let d = dist.(v) + weight v in
        List.iter (fun w -> if d > dist.(w) then dist.(w) <- d) (Digraph.succs g v))
      order;
    dist

  let longest_to_leaves g ~weight =
    let dist = Array.make (Digraph.node_count g) 0 in
    let order = List.rev (Topo.sort_exn g) in
    List.iter
      (fun v ->
        let best_succ =
          List.fold_left (fun acc w -> max acc dist.(w)) 0 (Digraph.succs g v)
        in
        dist.(v) <- weight v + best_succ)
      order;
    dist

  let critical_path_length g ~weight =
    let dist = longest_to_leaves g ~weight in
    Array.fold_left max 0 dist
end

(* --- list scheduling, binding, netlist -------------------------------- *)

let min_latency dfg v =
  match Resource.candidates (Dfg.op dfg v) with
  | [] -> 1
  | cands -> List.fold_left (fun acc (_, l) -> min acc l) max_int cands

let schedule dfg rs : Sched.t option =
  let g = graph dfg in
  let n = Digraph.node_count g in
  if n = 0 then
    Some { Sched.dfg; start = [||]; kind = [||]; latency = [||]; length = 0 }
  else begin
    let cands_of v =
      List.filter
        (fun (k, _) -> Resource_set.count rs k > 0)
        (Resource.candidates (Dfg.op dfg v))
    in
    let feasible = ref true in
    for v = 0 to n - 1 do
      if cands_of v = [] then feasible := false
    done;
    if not !feasible then None
    else begin
      let priority =
        Paths.longest_to_leaves g ~weight:(min_latency dfg)
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
          (List.init (Dfg.node_count sched.Lp_sched.Sched.dfg) Fun.id)
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
  let g = graph sched.Sched.dfg in
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
            graph (List.nth segments seg_i).Bind.sched.Sched.dfg
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
