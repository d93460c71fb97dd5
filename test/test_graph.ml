(* Unit + property tests for the graph kernel: Vec, Digraph, Topo,
   Paths. *)

module Vec = Lp_graph.Vec
module Digraph = Lp_graph.Digraph
module Topo = Lp_graph.Topo
module Paths = Lp_graph.Paths

let check = Alcotest.(check int)
let check_b = Alcotest.(check bool)
let check_l = Alcotest.(check (list int))

(* --- Vec --- *)

let test_vec_push_get () =
  let v = Vec.create () in
  Alcotest.(check bool) "fresh is empty" true (Vec.is_empty v);
  for i = 0 to 99 do
    Vec.push v (i * i)
  done;
  check "length" 100 (Vec.length v);
  check "get 7" 49 (Vec.get v 7);
  Vec.set v 7 (-1);
  check "set/get" (-1) (Vec.get v 7)

let test_vec_pop () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  Alcotest.(check (option int)) "pop" (Some 3) (Vec.pop v);
  check "length after pop" 2 (Vec.length v);
  ignore (Vec.pop v);
  ignore (Vec.pop v);
  Alcotest.(check (option int)) "pop empty" None (Vec.pop v)

let test_vec_bounds () =
  let v = Vec.of_list [ 1 ] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec: index 1 out of bounds [0,1)")
    (fun () -> ignore (Vec.get v 1));
  Alcotest.check_raises "get neg" (Invalid_argument "Vec: index -1 out of bounds [0,1)")
    (fun () -> ignore (Vec.get v (-1)))

let test_vec_fold_map () =
  let v = Vec.of_list [ 1; 2; 3; 4 ] in
  check "fold sum" 10 (Vec.fold_left ( + ) 0 v);
  check_l "map" [ 2; 4; 6; 8 ] (Vec.to_list (Vec.map (fun x -> 2 * x) v));
  check_b "exists" true (Vec.exists (fun x -> x = 3) v);
  check_b "not exists" false (Vec.exists (fun x -> x = 9) v);
  Vec.clear v;
  check "cleared" 0 (Vec.length v)

(* --- Digraph --- *)

let diamond () =
  (* 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3 *)
  let g = Digraph.create () in
  ignore (Digraph.add_nodes g 4);
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 0 2;
  Digraph.add_edge g 1 3;
  Digraph.add_edge g 2 3;
  g

let test_digraph_basic () =
  let g = diamond () in
  check "nodes" 4 (Digraph.node_count g);
  check "edges" 4 (Digraph.edge_count g);
  check_l "succs 0" [ 1; 2 ] (Digraph.succs g 0);
  check_l "preds 3" [ 1; 2 ] (Digraph.preds g 3);
  check_l "roots" [ 0 ] (Digraph.roots g);
  check_l "leaves" [ 3 ] (Digraph.leaves g);
  check_b "mem" true (Digraph.mem_edge g 0 1);
  check_b "not mem" false (Digraph.mem_edge g 1 0)

let test_digraph_idempotent_edges () =
  let g = diamond () in
  Digraph.add_edge g 0 1;
  check "no parallel edge" 4 (Digraph.edge_count g);
  Digraph.remove_edge g 0 1;
  check "removed" 3 (Digraph.edge_count g);
  Digraph.remove_edge g 0 1;
  check "remove is idempotent" 3 (Digraph.edge_count g)

let test_digraph_copy_transpose () =
  let g = diamond () in
  let c = Digraph.copy g in
  Digraph.add_edge c 3 0;
  check "copy isolated" 4 (Digraph.edge_count g);
  check "copy has new edge" 5 (Digraph.edge_count c);
  let t = Digraph.transpose g in
  check_l "transposed succs of 3" [ 1; 2 ] (Digraph.succs t 3);
  check_l "transposed roots" [ 3 ] (Digraph.roots t)

let test_digraph_bad_node () =
  let g = diamond () in
  Alcotest.check_raises "bad edge"
    (Invalid_argument "Digraph: 9 is not a node") (fun () ->
      Digraph.add_edge g 0 9)

(* --- Topo --- *)

let test_topo_diamond () =
  let g = diamond () in
  match Topo.sort g with
  | None -> Alcotest.fail "diamond is a DAG"
  | Some order ->
      check "all nodes" 4 (List.length order);
      let pos v = Option.get (List.find_index (fun x -> x = v) order) in
      Digraph.iter_edges
        (fun u v -> check_b "edge order" true (pos u < pos v))
        g

let test_topo_cycle () =
  let g = Digraph.create () in
  ignore (Digraph.add_nodes g 2);
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 1 0;
  check_b "cycle detected" false (Topo.is_dag g);
  Alcotest.check_raises "sort_exn raises"
    (Invalid_argument "Topo.sort_exn: graph has a cycle") (fun () ->
      ignore (Topo.sort_exn g))

let test_topo_deterministic () =
  let g = Digraph.create () in
  ignore (Digraph.add_nodes g 5);
  (* No edges: Kahn with a min-heap must give ascending ids. *)
  check_l "ascending" [ 0; 1; 2; 3; 4 ] (Topo.sort_exn g)

let test_topo_levels () =
  let g = diamond () in
  let levels = Topo.levels g in
  check "level 0" 0 levels.(0);
  check "level 1" 1 levels.(1);
  check "level 3" 2 levels.(3)

(* --- Paths --- *)

let test_paths_unit_weights () =
  let g = diamond () in
  let from_roots = Paths.longest_from_roots g ~weight:(fun _ -> 1) in
  check "root dist" 0 from_roots.(0);
  check "sink dist" 2 from_roots.(3);
  let to_leaves = Paths.longest_to_leaves g ~weight:(fun _ -> 1) in
  check "root to leaf" 3 to_leaves.(0);
  check "leaf self" 1 to_leaves.(3);
  check "critical path" 3 (Paths.critical_path_length g ~weight:(fun _ -> 1))

let test_paths_weighted () =
  let g = diamond () in
  let weight = function 1 -> 5 | _ -> 1 in
  let from_roots = Paths.longest_from_roots g ~weight in
  check "heavy branch wins" 6 from_roots.(3);
  check "critical" 7 (Paths.critical_path_length g ~weight)

let test_paths_empty () =
  let g = Digraph.create () in
  check "empty critical path" 0 (Paths.critical_path_length g ~weight:(fun _ -> 1))

(* --- properties --- *)

let prop_topo_respects_edges =
  QCheck.Test.make ~name:"topo order respects every edge" ~count:200
    Lp_testkit.dag_arbitrary (fun g ->
      match Topo.sort g with
      | None -> false
      | Some order ->
          let pos = Array.make (Digraph.node_count g) 0 in
          List.iteri (fun i v -> pos.(v) <- i) order;
          let ok = ref true in
          Digraph.iter_edges (fun u v -> if pos.(u) >= pos.(v) then ok := false) g;
          !ok && List.length order = Digraph.node_count g)

let prop_transpose_involution =
  QCheck.Test.make ~name:"transpose is an involution" ~count:200
    Lp_testkit.digraph_arbitrary (fun g ->
      let t2 = Digraph.transpose (Digraph.transpose g) in
      Digraph.node_count t2 = Digraph.node_count g
      && Digraph.edge_count t2 = Digraph.edge_count g
      && List.for_all
           (fun u ->
             List.sort compare (Digraph.succs g u)
             = List.sort compare (Digraph.succs t2 u))
           (Digraph.nodes g))

(* Random inserts (with repeats) and removals on a few nodes, so some
   reach the wide-node duplicate check: adjacency must match a plain
   list model in content and insertion order. *)
let prop_adjacency_model =
  QCheck.Test.make ~name:"adjacency matches a list model" ~count:200
    QCheck.(list (triple bool (int_bound 2) (int_bound 40)))
    (fun ops ->
      let n = 41 in
      let g = Digraph.create () in
      ignore (Digraph.add_nodes g n);
      let succ = Array.make n [] and pred = Array.make n [] in
      List.iter
        (fun (add, u, v) ->
          if add then begin
            Digraph.add_edge g u v;
            if not (List.mem v succ.(u)) then begin
              succ.(u) <- succ.(u) @ [ v ];
              pred.(v) <- pred.(v) @ [ u ]
            end
          end
          else begin
            Digraph.remove_edge g u v;
            succ.(u) <- List.filter (( <> ) v) succ.(u);
            pred.(v) <- List.filter (( <> ) u) pred.(v)
          end)
        ops;
      List.for_all
        (fun v ->
          Digraph.succs g v = succ.(v)
          && Digraph.preds g v = pred.(v)
          && Digraph.out_degree g v = List.length succ.(v)
          && List.for_all
               (fun w -> Digraph.mem_edge g v w = List.mem w succ.(v))
               (Digraph.nodes g))
        (Digraph.nodes g)
      && Digraph.edge_count g
         = Array.fold_left (fun a l -> a + List.length l) 0 succ)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "lp_graph"
    [
      ( "vec",
        [
          Alcotest.test_case "push/get/set" `Quick test_vec_push_get;
          Alcotest.test_case "pop" `Quick test_vec_pop;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "fold/map/exists/clear" `Quick test_vec_fold_map;
        ] );
      ( "digraph",
        [
          Alcotest.test_case "basic accessors" `Quick test_digraph_basic;
          Alcotest.test_case "idempotent edges" `Quick test_digraph_idempotent_edges;
          Alcotest.test_case "copy and transpose" `Quick test_digraph_copy_transpose;
          Alcotest.test_case "bad node rejected" `Quick test_digraph_bad_node;
        ] );
      ( "topo",
        [
          Alcotest.test_case "diamond order" `Quick test_topo_diamond;
          Alcotest.test_case "cycle detection" `Quick test_topo_cycle;
          Alcotest.test_case "deterministic ties" `Quick test_topo_deterministic;
          Alcotest.test_case "levels" `Quick test_topo_levels;
        ] );
      ( "paths",
        [
          Alcotest.test_case "unit weights" `Quick test_paths_unit_weights;
          Alcotest.test_case "weighted" `Quick test_paths_weighted;
          Alcotest.test_case "empty graph" `Quick test_paths_empty;
        ] );
      ( "properties",
        qcheck
          [
            prop_topo_respects_edges;
            prop_transpose_involution;
            prop_adjacency_model;
          ] );
    ]
