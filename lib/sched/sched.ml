module Dfg = Lp_ir.Dfg
module Resource = Lp_tech.Resource
module Resource_set = Lp_tech.Resource_set

type t = {
  dfg : Dfg.t;
  start : int array;
  kind : Resource.kind array;
  latency : int array;
  length : int;
}

(* Operations with the same candidate list schedule alike: they form
   one class, and each class is resolved against a resource set once per
   [schedule] call rather than once per node and control step.
   [op_class] is indexed by [Op.index]. *)
let classes, op_class =
  let lists = ref [] and table = Array.make Lp_tech.Op.count 0 in
  List.iter
    (fun op ->
      let cands = Resource.candidates op in
      let rec index i = function
        | [] ->
            lists := !lists @ [ cands ];
            i
        | l :: rest -> if l = cands then i else index (i + 1) rest
      in
      table.(Lp_tech.Op.index op) <- index 0 !lists)
    Lp_tech.Op.all;
  (Array.of_list (List.map Array.of_list !lists), table)

let class_min_latency =
  Array.map (Array.fold_left (fun acc (_, l) -> min acc l) max_int) classes

let max_latency =
  Array.fold_left
    (Array.fold_left (fun acc (_, l) -> max acc l))
    1 classes

let class_of dfg v = op_class.(Lp_tech.Op.index (Dfg.op dfg v))

let min_latency dfg v = class_min_latency.(class_of dfg v)

let asap dfg = Dfg.longest_from_sources dfg ~weight:(min_latency dfg)

let critical_path dfg =
  Array.fold_left max 0 (Dfg.longest_to_sinks dfg ~weight:(min_latency dfg))

let alap dfg ~length =
  let to_leaves = Dfg.longest_to_sinks dfg ~weight:(min_latency dfg) in
  Array.map (fun d -> length - d) to_leaves

let mobility dfg =
  let len = critical_path dfg in
  let a = asap dfg in
  let l = alap dfg ~length:len in
  Array.init (Array.length a) (fun i -> l.(i) - a.(i))

module Int_heap = Lp_graph.Int_heap

(* Everything about a DFG that no resource set changes: each node's
   class, its priority (longest path to a sink, over minimum latencies)
   and its in-degree. Successors are read from the DFG's own rows. *)
type prepared = {
  p_dfg : Dfg.t;
  cls : int array;
  key : int array;  (** heap key: priority descending, then node id *)
  indeg : int array;
  class_size : int array;
}

let prepare dfg =
  let n = Dfg.node_count dfg in
  let cls = Array.init n (class_of dfg) in
  let indeg = Array.init n (Dfg.in_degree dfg) in
  let priority =
    Dfg.longest_to_sinks dfg ~weight:(fun v -> class_min_latency.(cls.(v)))
  in
  let top = Array.fold_left max 0 priority in
  let class_size = Array.make (Array.length classes) 0 in
  Array.iter (fun c -> class_size.(c) <- class_size.(c) + 1) cls;
  {
    p_dfg = dfg;
    cls;
    key = Array.init n (fun v -> ((top - priority.(v)) * n) + v);
    indeg;
    class_size;
  }

let prepared_dfg p = p.p_dfg

let schedule_prepared p rs =
  let dfg = p.p_dfg in
  let n = Array.length p.cls in
  if n = 0 then
    Some { dfg; start = [||]; kind = [||]; latency = [||]; length = 0 }
  else begin
    let n_classes = Array.length classes in
    (* Per kind of [rs], the step each instance is busy until; per class
       present in the DFG, the kinds of [rs] that can run it (smallest
       first, as [Resource.candidates] lists them) with their
       latencies. *)
    let busy = Array.make Resource.n_kinds [||] in
    List.iter
      (fun (k, cnt) -> busy.(Resource.kind_index k) <- Array.make cnt 0)
      (Resource_set.bindings rs);
    let feasible = Array.make n_classes [||] in
    let infeasible = ref false in
    for c = 0 to n_classes - 1 do
      if p.class_size.(c) > 0 then begin
        let ks =
          Array.of_list
            (List.filter_map
               (fun (k, lat) ->
                 let insts = busy.(Resource.kind_index k) in
                 if Array.length insts > 0 then Some (k, lat, insts) else None)
               (Array.to_list classes.(c)))
        in
        if Array.length ks = 0 then infeasible := true;
        feasible.(c) <- ks
      end
    done;
    if !infeasible then None
    else begin
      let cls = p.cls and key = p.key and succ = dfg.Dfg.succ
      and succ_start = dfg.Dfg.succ_off in
      let heap = Array.map Int_heap.create p.class_size in
      let start = Array.make n (-1) in
      let kind = Array.make n Resource.Alu in
      let latency = Array.make n 1 in
      let preds_left = Array.copy p.indeg in
      let ready_at = Array.make n 0 (* earliest data-ready step *) in
      (* Nodes whose predecessors are all scheduled wait in a ring of
         lists until their data is ready: the list of slot [s mod ring]
         (linked through [next]) holds those ready at step [s], which is
         at most [max_latency] steps ahead. *)
      let ring = max_latency + 1 in
      let pending = Array.make ring (-1) and next = Array.make n (-1) in
      for v = 0 to n - 1 do
        if preds_left.(v) = 0 then Int_heap.push heap.(cls.(v)) key.(v)
      done;
      let open_class = Array.make n_classes false in
      let scheduled = ref 0 in
      let t = ref 0 in
      while !scheduled < n do
        let now = !t in
        let slot = now mod ring in
        let v = ref pending.(slot) in
        while !v >= 0 do
          Int_heap.push heap.(cls.(!v)) key.(!v);
          v := next.(!v)
        done;
        pending.(slot) <- -1;
        for c = 0 to n_classes - 1 do
          open_class.(c) <- not (Int_heap.is_empty heap.(c))
        done;
        (* Visit the ready nodes in priority order across the classes.
           When a class's most urgent node finds no free instance, no
           other node of that class can get one in this step (the
           instances only fill up), so the class closes until the next
           step. *)
        let visiting = ref true in
        while !visiting do
          let best = ref (-1) in
          for c = 0 to n_classes - 1 do
            if
              open_class.(c)
              && (!best < 0 || Int_heap.top heap.(c) < Int_heap.top heap.(!best))
            then best := c
          done;
          if !best < 0 then visiting := false
          else begin
            let c = !best in
            let v = Int_heap.top heap.(c) mod n in
            let ks = feasible.(c) in
            let placed = ref false and j = ref 0 in
            while (not !placed) && !j < Array.length ks do
              let k, lat, insts = ks.(!j) in
              let i = ref 0 in
              while !i < Array.length insts && insts.(!i) > now do
                incr i
              done;
              if !i < Array.length insts then begin
                placed := true;
                insts.(!i) <- now + lat;
                start.(v) <- now;
                kind.(v) <- k;
                latency.(v) <- lat;
                incr scheduled;
                for e = succ_start.(v) to succ_start.(v + 1) - 1 do
                  let w = succ.(e) in
                  preds_left.(w) <- preds_left.(w) - 1;
                  if now + lat > ready_at.(w) then ready_at.(w) <- now + lat;
                  if preds_left.(w) = 0 then begin
                    let s = ready_at.(w) mod ring in
                    next.(w) <- pending.(s);
                    pending.(s) <- w
                  end
                done
              end
              else incr j
            done;
            if !placed then begin
              ignore (Int_heap.pop heap.(c));
              if Int_heap.is_empty heap.(c) then open_class.(c) <- false
            end
            else open_class.(c) <- false
          end
        done;
        incr t
      done;
      let length = ref 0 in
      for v = 0 to n - 1 do
        if start.(v) + latency.(v) > !length then
          length := start.(v) + latency.(v)
      done;
      Some { dfg; start; kind; latency; length = !length }
    end
  end

let schedule dfg rs = schedule_prepared (prepare dfg) rs

let finish s v = s.start.(v) + s.latency.(v)

let ops_in_step s t =
  List.filter
    (fun v -> s.start.(v) <= t && t < finish s v)
    (List.init (Array.length s.start) Fun.id)

let pp ppf s =
  Format.fprintf ppf "@[<v>schedule (%d steps, %d ops)" s.length
    (Array.length s.start);
  Array.iteri
    (fun v st ->
      Format.fprintf ppf "@,op %d (%a): step %d..%d on %a" v Lp_tech.Op.pp
        (Dfg.op s.dfg v) st
        (st + s.latency.(v) - 1)
        Resource.pp_kind s.kind.(v))
    s.start;
  Format.fprintf ppf "@]"
