(* A node's successor list, and its predecessor list, is stored in
   insertion order while it is shorter than [wide_degree]. From that
   length on it is stored newest first behind a -1 marker (node ids are
   never negative), so an append copies a short list or conses onto a
   long one (amortised O(1)), reading a short list costs nothing, and
   reads never mutate. A duplicate edge is found by scanning a short
   successor list, and in the [wide] set of the edges out of nodes with
   a long one. *)
type t = {
  succ : int list Vec.t;
  pred : int list Vec.t;
  mutable wide : (int, unit) Hashtbl.t option;
  mutable n_edges : int;
}

let wide_degree = 16
let ordered = function -1 :: l -> List.rev l | l -> l

let stored l =
  if List.compare_length_with l wide_degree < 0 then l else -1 :: List.rev l

let create () =
  { succ = Vec.create (); pred = Vec.create (); wide = None; n_edges = 0 }

let add_node g =
  let id = Vec.length g.succ in
  Vec.push g.succ [];
  Vec.push g.pred [];
  id

let add_nodes g n = List.init n (fun _ -> add_node g)

let node_count g = Vec.length g.succ

let check_node g v =
  if v < 0 || v >= node_count g then
    invalid_arg (Printf.sprintf "Digraph: %d is not a node" v)

let edge_key u v = (u lsl 31) lor v

let mem_edge g u v =
  check_node g u;
  check_node g v;
  match (Vec.get g.succ u, g.wide) with
  | -1 :: _, Some wide -> Hashtbl.mem wide (edge_key u v)
  | l, _ -> List.mem v l

let append adjs v x =
  Vec.set adjs v
    (match Vec.get adjs v with
    | -1 :: l -> -1 :: x :: l
    | l -> stored (l @ [ x ]))

let add_edge g u v =
  if not (mem_edge g u v) then begin
    append g.succ u v;
    append g.pred v u;
    (match Vec.get g.succ u with
    | -1 :: l ->
        let wide =
          match g.wide with
          | Some wide -> wide
          | None ->
              let wide = Hashtbl.create 64 in
              g.wide <- Some wide;
              wide
        in
        let add x = Hashtbl.replace wide (edge_key u x) () in
        if List.compare_length_with l wide_degree = 0 then List.iter add l
        else add v
    | _ -> ());
    g.n_edges <- g.n_edges + 1
  end

let remove_edge g u v =
  if mem_edge g u v then begin
    Option.iter (fun wide -> Hashtbl.remove wide (edge_key u v)) g.wide;
    let drop x adjs y =
      let l = List.filter (( <> ) x) (ordered (Vec.get adjs y)) in
      Vec.set adjs y (stored l)
    in
    drop v g.succ u;
    drop u g.pred v;
    g.n_edges <- g.n_edges - 1
  end

let edge_count g = g.n_edges

let nodes g = List.init (node_count g) Fun.id

let succs g v =
  check_node g v;
  ordered (Vec.get g.succ v)

let preds g v =
  check_node g v;
  ordered (Vec.get g.pred v)

let degree = function -1 :: l -> List.length l | l -> List.length l

let out_degree g v =
  check_node g v;
  degree (Vec.get g.succ v)

let in_degree g v =
  check_node g v;
  degree (Vec.get g.pred v)

let iter_nodes f g =
  for v = 0 to node_count g - 1 do
    f v
  done

let iter_edges f g = iter_nodes (fun u -> List.iter (f u) (succs g u)) g

let fold_nodes f acc g =
  let acc = ref acc in
  iter_nodes (fun v -> acc := f !acc v) g;
  !acc

let roots g = List.filter (fun v -> in_degree g v = 0) (nodes g)

let leaves g = List.filter (fun v -> out_degree g v = 0) (nodes g)

let copy g =
  {
    succ = Vec.map Fun.id g.succ;
    pred = Vec.map Fun.id g.pred;
    wide = Option.map Hashtbl.copy g.wide;
    n_edges = g.n_edges;
  }

let transpose g =
  let t = create () in
  ignore (add_nodes t (node_count g));
  iter_edges (fun u v -> add_edge t v u) g;
  t

let pp ppf g =
  Format.fprintf ppf "@[<v>digraph (%d nodes, %d edges)" (node_count g)
    (edge_count g);
  iter_nodes
    (fun v ->
      match succs g v with
      | [] -> ()
      | ss ->
          Format.fprintf ppf "@,%d -> %a" v
            (Format.pp_print_list
               ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
               Format.pp_print_int)
            ss)
    g;
  Format.fprintf ppf "@]"
