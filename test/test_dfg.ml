(* DFG lowering: node/edge structure, memory-ordering edges, move
   insertion, call rejection, and graph well-formedness on random
   straight-line blocks. *)

open Lp_ir
open Lp_ir.Builder
module Op = Lp_tech.Op

let ops_of t = List.sort compare (Dfg.ops t)

let count op t = List.length (List.filter (Op.equal op) (Dfg.ops t))

let test_expr_lowering () =
  let t = Dfg.of_segment_exn [ (var "a" * var "b") + int 1 ] [] in
  Alcotest.(check int) "two ops" 2 (Dfg.node_count t);
  Alcotest.(check (list string)) "mul feeds add" [ "add"; "mul" ]
    (List.map Op.to_string (ops_of t));
  (* The mul node must have an edge to the add node. *)
  Alcotest.(check int) "one edge" 1 (Dfg.edge_count t)

let test_inputs_create_no_nodes () =
  let t = Dfg.of_segment_exn [ var "x" + var "y" ] [] in
  Alcotest.(check int) "only the add" 1 (Dfg.node_count t);
  Alcotest.(check int) "no input edges" 0 (Dfg.edge_count t)

let test_assign_copy_is_move () =
  let t = Dfg.of_segment_exn [] [ "x" := var "y"; "z" := int 5 ] in
  Alcotest.(check int) "two moves" 2 (count Op.Move t)

let test_assign_chains_through_env () =
  (* x = a + b; y = x * x  : the mul reads the add's node twice. *)
  let t = Dfg.of_segment_exn [] [ "x" := var "a" + var "b"; "y" := var "x" * var "x" ] in
  Alcotest.(check int) "add and mul" 2 (Dfg.node_count t);
  (* Parallel edges collapse, so one edge add->mul. *)
  Alcotest.(check int) "dependency edge" 1 (Dfg.edge_count t)

let test_memory_ordering () =
  (* store a[0]; load a[0]; store a[1] — must serialise on array a. *)
  let t =
    Dfg.of_segment_exn []
      [
        store "a" (int 0) (int 1);
        "x" := load "a" (int 0);
        store "a" (int 1) (var "x");
      ]
  in
  let nodes = List.init (Dfg.node_count t) Fun.id in
  let find op = List.filter (fun v -> Op.equal (Dfg.op t v) op) nodes in
  let stores = find Op.Store and loads = find Op.Load in
  Alcotest.(check int) "two stores" 2 (List.length stores);
  Alcotest.(check int) "one load" 1 (List.length loads);
  let s1 = List.nth stores 0 and s2 = List.nth stores 1 in
  let l = List.hd loads in
  Alcotest.(check bool) "store->load edge" true (List.mem l (Dfg.succs t s1));
  Alcotest.(check bool) "load->store edge" true (List.mem l (Dfg.preds t s2))

let test_different_arrays_independent () =
  let t =
    Dfg.of_segment_exn []
      [ store "a" (int 0) (int 1); "x" := load "b" (int 0) ]
  in
  (* No ordering between different arrays: store a and load b are
     unconnected. *)
  Alcotest.(check int) "no cross-array edges" 0 (Dfg.edge_count t)

let test_store_annotated_with_array () =
  let t = Dfg.of_segment_exn [] [ store "img" (int 3) (int 9) ] in
  Alcotest.(check (option string)) "array name" (Some "img") (Dfg.array t 0)

let test_call_rejected () =
  Alcotest.(check bool) "call gives None" true
    (Option.is_none (Dfg.of_segment [ call "f" [] ] []));
  Alcotest.(check bool) "call in stmt gives None" true
    (Option.is_none (Dfg.of_segment [] [ "x" := call "f" [ int 1 ] ]));
  Alcotest.(check bool) "return rejected" true
    (Option.is_none (Dfg.of_segment [] [ return (int 1) ]))

let test_control_flow_rejected () =
  Alcotest.check_raises "control flow is a caller bug"
    (Invalid_argument "Dfg.of_segment: control flow inside a segment")
    (fun () -> ignore (Dfg.of_segment [] [ if_ (int 1) [] [] ]))

let test_print_becomes_move () =
  let t = Dfg.of_segment_exn [] [ print (var "x" + var "y") ] in
  Alcotest.(check int) "add + move" 2 (Dfg.node_count t);
  Alcotest.(check int) "one move" 1 (count Op.Move t);
  (* The transfer node is numbered before its operand: the one edge
     that runs backwards, into a sink. *)
  Alcotest.(check (list int)) "add feeds move" [ 1 ] (Dfg.preds t 0);
  Alcotest.(check int) "move is a sink" 0 (Dfg.out_degree t 0)

let test_comparison_class () =
  let t = Dfg.of_segment_exn [ var "a" < var "b" ] [] in
  Alcotest.(check int) "cmp op" 1 (count Op.Cmp t);
  let t2 = Dfg.of_segment_exn [ lnot (var "a") ] [] in
  Alcotest.(check int) "lnot is a cmp" 1 (count Op.Cmp t2)

let block_arb =
  QCheck.make
    ~print:(fun b ->
      String.concat "; " (List.map (Format.asprintf "%a" Printer.pp_stmt) b))
    (Lp_testkit.block_gen ~vars:[ "a"; "b"; "c" ] ~arrays:[ ("m", 16) ])

(* Every edge runs from a lower id to a higher one, or into a print's
   transfer node, which is a sink: so the graph is acyclic. *)
let forward_or_into_sink t u v =
  Stdlib.(u < v || (Op.equal (Dfg.op t v) Op.Move && Dfg.out_degree t v = 0))

let prop_dag =
  QCheck.Test.make ~name:"lowered segments are DAGs" ~count:200 block_arb
    (fun block ->
      match Dfg.of_segment [] block with
      | None -> true (* generated blocks contain no calls, but be safe *)
      | Some t ->
          List.for_all
            (fun v -> List.for_all (fun u -> forward_or_into_sink t u v) (Dfg.preds t v))
            (List.init (Dfg.node_count t) Fun.id))

(* The two rows describe one edge set with no duplicates; each
   predecessor row is in creation order: a node's in-edges are added as
   it is created, from operand nodes that already exist. *)
let prop_rows =
  QCheck.Test.make ~name:"flat rows are one duplicate-free edge set" ~count:300
    block_arb (fun block ->
      match Dfg.of_segment [] block with
      | None -> true
      | Some t ->
          let n = Dfg.node_count t in
          let distinct l = List.length (List.sort_uniq compare l) = List.length l in
          let nodes = List.init n Fun.id in
          let from_preds =
            List.concat_map (fun v -> List.map (fun u -> (u, v)) (Dfg.preds t v)) nodes
          and from_succs =
            List.concat_map (fun u -> List.map (fun v -> (u, v)) (Dfg.succs t u)) nodes
          in
          List.for_all
            (fun v ->
              distinct (Dfg.preds t v)
              && distinct (Dfg.succs t v)
              && List.length (Dfg.preds t v) = Dfg.in_degree t v
              && List.for_all (fun u -> forward_or_into_sink t u v) (Dfg.preds t v))
            nodes
          && List.sort compare from_preds = List.sort compare from_succs
          && List.length from_preds = Dfg.edge_count t)

let prop_op_count_matches =
  QCheck.Test.make ~name:"node count equals static op count" ~count:200
    block_arb (fun block ->
      match Dfg.of_segment [] block with
      | None -> true
      | Some t -> List.length (Dfg.ops t) = Dfg.node_count t)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "lp_dfg"
    [
      ( "lowering",
        [
          Alcotest.test_case "expression tree" `Quick test_expr_lowering;
          Alcotest.test_case "inputs are free" `Quick test_inputs_create_no_nodes;
          Alcotest.test_case "copies become moves" `Quick test_assign_copy_is_move;
          Alcotest.test_case "env chains defs" `Quick test_assign_chains_through_env;
          Alcotest.test_case "print becomes move" `Quick test_print_becomes_move;
          Alcotest.test_case "comparisons map to cmp" `Quick test_comparison_class;
        ] );
      ( "memory",
        [
          Alcotest.test_case "same-array ordering" `Quick test_memory_ordering;
          Alcotest.test_case "different arrays independent" `Quick
            test_different_arrays_independent;
          Alcotest.test_case "store annotation" `Quick test_store_annotated_with_array;
        ] );
      ( "rejection",
        [
          Alcotest.test_case "calls" `Quick test_call_rejected;
          Alcotest.test_case "control flow" `Quick test_control_flow_rejected;
        ] );
      ("properties", qcheck [ prop_dag; prop_rows; prop_op_count_matches ]);
    ]
