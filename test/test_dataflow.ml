(* gen/use dataflow: upward-exposed uses, definite writes through
   branches, loop conservatism, transitive call summaries. *)

open Lp_ir.Builder
module Dataflow = Lp_dataflow.Dataflow
module Sset = Dataflow.Sset

let elements s = Sset.elements s

let mk ?(arrays = []) ?(funcs = []) ~locals body =
  program ~arrays (funcs @ [ func "main" ~params:[] ~locals body ])

let sets_of ?(arrays = []) ?(funcs = []) ~locals body =
  let p = mk ~arrays ~funcs ~locals body in
  let main = Option.get (Lp_ir.Ast.find_func p "main") in
  Dataflow.of_stmts p main.Lp_ir.Ast.body

let test_use_before_def () =
  let s =
    sets_of ~locals:[ "x"; "y" ] [ "y" := var "x" + int 1; "x" := int 0 ]
  in
  Alcotest.(check (list string)) "x is used" [ "x" ] (elements s.Dataflow.use_scalars);
  Alcotest.(check (list string)) "x,y are gen" [ "x"; "y" ]
    (elements s.Dataflow.gen_scalars)

let test_def_kills_use () =
  let s =
    sets_of ~locals:[ "x"; "y" ] [ "x" := int 1; "y" := var "x" ]
  in
  Alcotest.(check (list string)) "no upward-exposed use" []
    (elements s.Dataflow.use_scalars)

let test_branch_writes_not_definite () =
  (* x written in only one branch: a later read is still exposed. *)
  let s =
    sets_of ~locals:[ "c"; "x"; "y" ]
      [
        if_ (var "c" > int 0) [ "x" := int 1 ] [];
        "y" := var "x";
      ]
  in
  Alcotest.(check bool) "x exposed" true (Sset.mem "x" s.Dataflow.use_scalars)

let test_branch_writes_both_definite () =
  let s =
    sets_of ~locals:[ "c"; "x"; "y" ]
      [
        if_ (var "c" > int 0) [ "x" := int 1 ] [ "x" := int 2 ];
        "y" := var "x";
      ]
  in
  Alcotest.(check bool) "x not exposed" false (Sset.mem "x" s.Dataflow.use_scalars)

let test_loop_body_conservative () =
  (* A while body may run zero times: its writes are not definite and
     its reads are exposed. *)
  let s =
    sets_of ~locals:[ "c"; "x"; "y" ]
      [
        while_ (var "c" > int 0) [ "x" := var "x" + int 1 ];
        "y" := var "x";
      ]
  in
  Alcotest.(check bool) "x exposed by body" true (Sset.mem "x" s.Dataflow.use_scalars);
  Alcotest.(check bool) "x still gen" true (Sset.mem "x" s.Dataflow.gen_scalars)

let test_for_index_gen () =
  let s =
    sets_of ~locals:[ "s" ]
      [ for_ "i" (int 0) (int 4) [ "s" := var "s" + var "i" ] ]
  in
  Alcotest.(check bool) "index is gen" true (Sset.mem "i" s.Dataflow.gen_scalars);
  Alcotest.(check bool) "index not use" false (Sset.mem "i" s.Dataflow.use_scalars);
  Alcotest.(check bool) "s exposed (loop may iterate)" true
    (Sset.mem "s" s.Dataflow.use_scalars)

let test_array_sets () =
  let s =
    sets_of
      ~arrays:[ array "a" 4; array "b" 4 ]
      ~locals:[ "x" ]
      [ "x" := load "a" (int 0); store "b" (int 0) (var "x") ]
  in
  Alcotest.(check (list string)) "a read" [ "a" ] (elements s.Dataflow.use_arrays);
  Alcotest.(check (list string)) "b written" [ "b" ] (elements s.Dataflow.gen_arrays)

(* [mid] reaches the array [deep] only through [leaf]. *)
let deep_funcs =
  [
    func "leaf" ~params:[] ~locals:[ "t" ]
      [ "t" := load "deep" (int 0); store "deep" (int 1) (var "t"); return (var "t") ];
    func "mid" ~params:[] ~locals:[] [ return (call "leaf" []) ];
  ]

let test_call_summary_transitive () =
  let p =
    mk
      ~arrays:[ array "deep" 4 ]
      ~funcs:deep_funcs
      ~locals:[ "x" ]
      [ "x" := call "mid" [] ]
  in
  let r, w = Dataflow.func_summary p "mid" in
  Alcotest.(check (list string)) "transitive reads" [ "deep" ] (elements r);
  Alcotest.(check (list string)) "transitive writes" [ "deep" ] (elements w);
  let main = Option.get (Lp_ir.Ast.find_func p "main") in
  let s = Dataflow.of_stmts p main.Lp_ir.Ast.body in
  Alcotest.(check bool) "call propagates arrays" true
    (Sset.mem "deep" s.Dataflow.use_arrays && Sset.mem "deep" s.Dataflow.gen_arrays)

let test_recursive_summary_terminates () =
  let rec_f =
    func "r" ~params:[ "n" ] ~locals:[]
      [
        if_ (var "n" > int 0)
          [ store "acc" (int 0) (call "r" [ var "n" - int 1 ]) ]
          [];
        return (var "n");
      ]
  in
  let p =
    mk ~arrays:[ array "acc" 1 ] ~funcs:[ rec_f ] ~locals:[ "x" ]
      [ "x" := call "r" [ int 2 ] ]
  in
  let _, w = Dataflow.func_summary p "r" in
  Alcotest.(check (list string)) "recursion converges" [ "acc" ] (elements w)

let test_of_chain_keys () =
  let p =
    mk ~locals:[ "x" ]
      [ "x" := int 1; for_ "i" (int 0) (int 3) [ "x" := var "x" + int 1 ] ]
  in
  let chain = Lp_cluster.Cluster.decompose p in
  let keyed = Dataflow.of_chain p chain in
  Alcotest.(check (list int)) "keys are cids" [ 0; 1 ] (List.map fst keyed)

(* [of_chain] computes the call summaries once for the whole chain;
   [of_cluster] recomputes them per cluster. Both must agree on every
   cluster of real programs, and of a chain whose clusters reach arrays
   only through calls. *)
let test_of_chain_matches_of_cluster () =
  let calls =
    mk
      ~arrays:[ array "deep" 4; array "a" 4 ]
      ~funcs:deep_funcs ~locals:[ "x"; "y" ]
      [
        "x" := int 1;
        for_ "i" (int 0) (int 3) [ "x" := var "x" + call "mid" [] ];
        store "a" (int 0) (var "x");
        for_ "i" (int 0) (int 2) [ "y" := load "a" (var "i") + call "leaf" [] ];
        print (var "y");
      ]
  in
  let programs =
    ("calls", calls)
    :: List.map (fun (e : Lp_apps.Apps.entry) -> (e.name, e.build ())) Lp_apps.Apps.all
    @ List.map
        (fun spec ->
          match Lp_apps.Apps.resolve spec with
          | Ok e -> (spec, e.Lp_apps.Apps.build ())
          | Error msg -> Alcotest.fail msg)
        [ "gen:paper:1"; "gen:wide:1"; "gen:deep:1" ]
  in
  List.iter
    (fun (name, p) ->
      let chain = Lp_cluster.Cluster.decompose p in
      let keyed = Dataflow.of_chain p chain in
      Alcotest.(check (list int))
        (name ^ " keys are cids")
        (List.map (fun (c : Lp_cluster.Cluster.t) -> c.cid) chain)
        (List.map fst keyed);
      List.iter2
        (fun (c : Lp_cluster.Cluster.t) (_, (got : Dataflow.sets)) ->
          let want = Dataflow.of_cluster p c in
          let field label f =
            Alcotest.(check (list string))
              (Printf.sprintf "%s c%d %s" name c.cid label)
              (elements (f want)) (elements (f got))
          in
          field "use_scalars" (fun s -> s.Dataflow.use_scalars);
          field "gen_scalars" (fun s -> s.Dataflow.gen_scalars);
          field "use_arrays" (fun s -> s.Dataflow.use_arrays);
          field "gen_arrays" (fun s -> s.Dataflow.gen_arrays))
        chain keyed)
    programs

let test_union () =
  let a =
    { Dataflow.empty with Dataflow.use_scalars = Sset.singleton "x" }
  in
  let b =
    { Dataflow.empty with Dataflow.gen_arrays = Sset.singleton "m" }
  in
  let u = Dataflow.union a b in
  Alcotest.(check bool) "union both" true
    (Sset.mem "x" u.Dataflow.use_scalars && Sset.mem "m" u.Dataflow.gen_arrays)

let () =
  Alcotest.run "lp_dataflow"
    [
      ( "scalars",
        [
          Alcotest.test_case "use before def" `Quick test_use_before_def;
          Alcotest.test_case "def kills use" `Quick test_def_kills_use;
          Alcotest.test_case "one-sided branch write" `Quick test_branch_writes_not_definite;
          Alcotest.test_case "two-sided branch write" `Quick test_branch_writes_both_definite;
          Alcotest.test_case "loop conservatism" `Quick test_loop_body_conservative;
          Alcotest.test_case "for index" `Quick test_for_index_gen;
        ] );
      ( "arrays+calls",
        [
          Alcotest.test_case "array read/write" `Quick test_array_sets;
          Alcotest.test_case "transitive summaries" `Quick test_call_summary_transitive;
          Alcotest.test_case "recursive summaries" `Quick test_recursive_summary_terminates;
        ] );
      ( "api",
        [
          Alcotest.test_case "of_chain keys" `Quick test_of_chain_keys;
          Alcotest.test_case "of_chain = of_cluster" `Quick
            test_of_chain_matches_of_cluster;
          Alcotest.test_case "union" `Quick test_union;
        ] );
    ]
