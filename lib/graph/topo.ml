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
