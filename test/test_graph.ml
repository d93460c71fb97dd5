(* Unit + property tests for the graph kernel: Vec, Digraph, Topo, Scc,
   Traverse, Paths. *)

module Vec = Lp_graph.Vec
module Digraph = Lp_graph.Digraph
module Topo = Lp_graph.Topo
module Scc = Lp_graph.Scc
module Traverse = Lp_graph.Traverse
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

(* --- Scc --- *)

let test_scc_cycle_plus_tail () =
  (* 0 <-> 1 -> 2 *)
  let g = Digraph.create () in
  ignore (Digraph.add_nodes g 3);
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 1 0;
  Digraph.add_edge g 1 2;
  let comps = Scc.components g in
  check "two components" 2 (List.length comps);
  let sizes = List.sort compare (List.map List.length comps) in
  check_l "sizes" [ 1; 2 ] sizes;
  check_b "not acyclic" false (Scc.is_acyclic g)

let test_scc_condensation_is_dag () =
  let g = Digraph.create () in
  ignore (Digraph.add_nodes g 6);
  List.iter
    (fun (u, v) -> Digraph.add_edge g u v)
    [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4); (4, 5); (5, 3) ];
  let dag, ids = Scc.condensation g in
  check "two sccs" 2 (Digraph.node_count dag);
  check_b "condensation acyclic" true (Topo.is_dag dag);
  check_b "0,1,2 together" true (ids.(0) = ids.(1) && ids.(1) = ids.(2));
  check_b "3,4,5 together" true (ids.(3) = ids.(4) && ids.(4) = ids.(5))

let test_scc_self_loop () =
  let g = Digraph.create () in
  ignore (Digraph.add_nodes g 1);
  Digraph.add_edge g 0 0;
  check_b "self loop is cyclic" false (Scc.is_acyclic g);
  check "one component" 1 (List.length (Scc.components g))

(* --- Traverse --- *)

let test_traverse_orders () =
  let g = diamond () in
  check_l "preorder" [ 0; 1; 3; 2 ] (Traverse.dfs_preorder g 0);
  check_l "postorder" [ 3; 1; 2; 0 ] (Traverse.dfs_postorder g 0);
  check_l "bfs" [ 0; 1; 2; 3 ] (Traverse.bfs g 0)

let test_traverse_reachability () =
  let g = diamond () in
  Digraph.remove_edge g 2 3;
  check_b "path 0->3" true (Traverse.has_path g 0 3);
  check_b "no path 2->3" false (Traverse.has_path g 2 3);
  let r = Traverse.reachable g 2 in
  check_b "self reachable" true r.(2);
  check_b "3 not reachable" false r.(3)

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

(* --- Dom --- *)

module Dom = Lp_graph.Dom

let test_dom_diamond () =
  let g = diamond () in
  let idoms = Dom.idom g ~root:0 in
  check "root self" 0 idoms.(0);
  check "1's idom" 0 idoms.(1);
  check "2's idom" 0 idoms.(2);
  (* The join point is dominated by the root, not by either branch. *)
  check "3's idom" 0 idoms.(3);
  check_b "0 dominates all" true
    (List.for_all (fun v -> Dom.dominates idoms 0 v) (Digraph.nodes g));
  check_b "1 does not dominate 3" false (Dom.dominates idoms 1 3);
  check_b "self domination" true (Dom.dominates idoms 3 3)

let test_dom_chain () =
  (* 0 -> 1 -> 2: a straight chain dominates transitively. *)
  let g = Digraph.create () in
  ignore (Digraph.add_nodes g 3);
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 1 2;
  let idoms = Dom.idom g ~root:0 in
  check "2's idom is 1" 1 idoms.(2);
  check_l "dominators of 2" [ 2; 1; 0 ] (Dom.dominators idoms 2);
  let t = Dom.dominator_tree g ~root:0 in
  check_b "tree edge 1->2" true (Digraph.mem_edge t 1 2)

let test_dom_loop () =
  (* 0 -> 1 -> 2 -> 1 (loop) and 1 -> 3: the header 1 dominates the
     body and the exit. *)
  let g = Digraph.create () in
  ignore (Digraph.add_nodes g 4);
  List.iter (fun (u, v) -> Digraph.add_edge g u v) [ (0, 1); (1, 2); (2, 1); (1, 3) ];
  let idoms = Dom.idom g ~root:0 in
  check_b "header dominates body" true (Dom.dominates idoms 1 2);
  check_b "header dominates exit" true (Dom.dominates idoms 1 3);
  check_b "body does not dominate exit" false (Dom.dominates idoms 2 3)

let test_dom_unreachable () =
  let g = Digraph.create () in
  ignore (Digraph.add_nodes g 3);
  Digraph.add_edge g 0 1;
  let idoms = Dom.idom g ~root:0 in
  check "unreachable marked" (-1) idoms.(2);
  check_l "no dominators" [] (Dom.dominators idoms 2);
  check_b "nothing dominates unreachable" false (Dom.dominates idoms 0 2)

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

let prop_scc_partition =
  QCheck.Test.make ~name:"scc components partition the nodes" ~count:200
    Lp_testkit.digraph_arbitrary (fun g ->
      let comps = Scc.components g in
      let all = List.concat comps in
      List.length all = Digraph.node_count g
      && List.sort_uniq compare all = List.init (Digraph.node_count g) Fun.id)

let prop_condensation_acyclic =
  QCheck.Test.make ~name:"condensation is always a DAG" ~count:200
    Lp_testkit.digraph_arbitrary (fun g ->
      let dag, _ = Scc.condensation g in
      Topo.is_dag dag)

let prop_dag_sccs_singletons =
  QCheck.Test.make ~name:"a DAG's sccs are singletons" ~count:200
    Lp_testkit.dag_arbitrary (fun g ->
      List.for_all (fun c -> List.length c = 1) (Scc.components g))

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

let prop_idom_dominates =
  QCheck.Test.make ~name:"idom of v strictly dominates v" ~count:200
    Lp_testkit.digraph_arbitrary (fun g ->
      Lp_graph.Digraph.node_count g = 0
      ||
      let idoms = Dom.idom g ~root:0 in
      let ok = ref true in
      Array.iteri
        (fun v d ->
          if d >= 0 && v <> 0 then
            if not (Dom.dominates idoms d v) then ok := false)
        idoms;
      !ok)

let prop_root_dominates_reachable =
  QCheck.Test.make ~name:"root dominates every reachable node" ~count:200
    Lp_testkit.digraph_arbitrary (fun g ->
      Lp_graph.Digraph.node_count g = 0
      ||
      let idoms = Dom.idom g ~root:0 in
      let reach = Traverse.reachable g 0 in
      let ok = ref true in
      Array.iteri
        (fun v r ->
          if r && not (Dom.dominates idoms 0 v) then ok := false;
          if (not r) && idoms.(v) >= 0 then ok := false)
        reach;
      !ok)

let prop_reachable_closed =
  QCheck.Test.make ~name:"reachable set is closed under successors" ~count:200
    Lp_testkit.digraph_arbitrary (fun g ->
      Digraph.node_count g = 0
      ||
      let r = Traverse.reachable g 0 in
      let ok = ref true in
      Digraph.iter_edges (fun u v -> if r.(u) && not r.(v) then ok := false) g;
      !ok)

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
      ( "scc",
        [
          Alcotest.test_case "cycle plus tail" `Quick test_scc_cycle_plus_tail;
          Alcotest.test_case "condensation DAG" `Quick test_scc_condensation_is_dag;
          Alcotest.test_case "self loop" `Quick test_scc_self_loop;
        ] );
      ( "traverse",
        [
          Alcotest.test_case "dfs/bfs orders" `Quick test_traverse_orders;
          Alcotest.test_case "reachability" `Quick test_traverse_reachability;
        ] );
      ( "paths",
        [
          Alcotest.test_case "unit weights" `Quick test_paths_unit_weights;
          Alcotest.test_case "weighted" `Quick test_paths_weighted;
          Alcotest.test_case "empty graph" `Quick test_paths_empty;
        ] );
      ( "dom",
        [
          Alcotest.test_case "diamond" `Quick test_dom_diamond;
          Alcotest.test_case "chain" `Quick test_dom_chain;
          Alcotest.test_case "loop" `Quick test_dom_loop;
          Alcotest.test_case "unreachable" `Quick test_dom_unreachable;
        ] );
      ( "properties",
        qcheck
          [
            prop_idom_dominates;
            prop_root_dominates_reachable;
            prop_topo_respects_edges;
            prop_scc_partition;
            prop_condensation_acyclic;
            prop_dag_sccs_singletons;
            prop_transpose_involution;
            prop_reachable_closed;
            prop_adjacency_model;
          ] );
    ]
