(* Differential test of the event-driven list scheduler, the binder
   and the one-sweep netlist generator: [Lp_sched.Sched.schedule],
   [Lp_bind.Bind.bind] and [Lp_rtl.Netlist.generate] must equal the
   reference implementations they replaced ([Sched_ref]) field for
   field — start step, kind and latency of every node, schedule length,
   the whole binding and the whole netlist record — on every segment DFG of the paper apps, [protocol] and the tracked
   corpus programs under all five preset resource sets, and on random
   blocks rich in multi-cycle operations and priority ties. *)

module Sched = Lp_sched.Sched
module Netlist = Lp_rtl.Netlist
module Bind = Lp_bind.Bind
module Dfg = Lp_ir.Dfg
module Resource = Lp_tech.Resource
module Resource_set = Lp_tech.Resource_set
module Cluster = Lp_cluster.Cluster
module Digraph = Lp_graph.Digraph

let presets =
  Resource_set.[ tiny; small; medium_dsp; large_dsp; control ]

let show_sched = function
  | None -> "infeasible"
  | Some (s : Sched.t) ->
      Printf.sprintf "length %d, starts [%s], kinds [%s], latencies [%s]"
        s.Sched.length
        (String.concat ";" (Array.to_list (Array.map string_of_int s.Sched.start)))
        (String.concat ";"
           (Array.to_list (Array.map Resource.kind_to_string s.Sched.kind)))
        (String.concat ";"
           (Array.to_list (Array.map string_of_int s.Sched.latency)))

let same_sched (a : Sched.t option) (b : Sched.t option) =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
      a.Sched.length = b.Sched.length
      && a.Sched.start = b.Sched.start
      && a.Sched.kind = b.Sched.kind
      && a.Sched.latency = b.Sched.latency
  | _ -> false

let show_netlist (t : Netlist.t) = Format.asprintf "%a" Netlist.pp t

let show_bind (b : Bind.result) = Format.asprintf "%a" Bind.pp_result b

(* Schedule [dfgs] under [rs] with both schedulers; when every segment
   is feasible, also bind them (all together and one by one, with
   distinct execution counts) and compare the bindings and the
   netlists. Returns the number of comparisons made, or a message
   describing the first disagreement. *)
let compare_segments ~what dfgs rs =
  let scheds =
    List.map (fun dfg -> (Sched.schedule dfg rs, Sched_ref.schedule dfg rs)) dfgs
  in
  match List.find_opt (fun (a, b) -> not (same_sched a b)) scheds with
  | Some (a, b) ->
      Error
        (Printf.sprintf "%s on %s: schedule\n  new: %s\n  ref: %s" what
           (Resource_set.name rs) (show_sched a) (show_sched b))
  | None -> (
      let n = List.length scheds in
      let segs =
        List.filter_map
          (fun (s, _) -> s)
          scheds
        |> List.mapi (fun i sched -> { Bind.sched; times = 1 + (7 * i) })
      in
      if List.length segs < n || segs = [] then Ok n
      else
        let groups = segs :: (if n > 1 then List.map (fun s -> [ s ]) segs else []) in
        let bad =
          List.find_map
            (fun group ->
              let b = Bind.bind group and b_ref = Sched_ref.bind group in
              if b <> b_ref then
                Some
                  (Printf.sprintf "%s on %s: binding\n  new: %s\n  ref: %s" what
                     (Resource_set.name rs) (show_bind b) (show_bind b_ref))
              else
                let a = Netlist.generate b group
                and r = Sched_ref.generate b_ref group in
                if a = r then None
                else
                  Some
                    (Printf.sprintf "%s on %s: netlist\n  new: %s\n  ref: %s"
                       what (Resource_set.name rs) (show_netlist a)
                       (show_netlist r)))
            groups
        in
        match bad with
        | Some msg -> Error msg
        | None -> Ok (n + (2 * List.length groups)))

let check_program name program =
  let count = ref 0 in
  List.iter
    (fun (c : Cluster.t) ->
      let dfgs =
        List.filter_map
          (fun (seg : Cluster.segment) ->
            Dfg.of_segment seg.Cluster.seg_exprs seg.Cluster.seg_stmts)
          (Cluster.segments c)
      in
      List.iter
        (fun rs ->
          match
            compare_segments
              ~what:(Printf.sprintf "%s cluster %d" name c.Cluster.cid)
              dfgs rs
          with
          | Ok k -> count := !count + k
          | Error msg -> Alcotest.fail msg)
        presets)
    (Cluster.decompose program);
  !count

let test_programs programs () =
  let total =
    List.fold_left
      (fun acc (name, build) -> acc + check_program name (build ()))
      0 (programs ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d comparisons made" total)
    true (total > 0)

let apps () =
  List.map
    (fun (e : Lp_apps.Apps.entry) -> (e.Lp_apps.Apps.name, e.Lp_apps.Apps.build))
    Lp_apps.Apps.extended

let corpus () =
  match Lp_bench.Corpus.load "../bench/corpus.json" with
  | Error msg -> Alcotest.fail ("corpus manifest: " ^ msg)
  | Ok entries ->
      List.map
        (fun (e : Lp_bench.Corpus.entry) ->
          match Lp_gen.Gen.parse_name e.Lp_bench.Corpus.spec with
          | Ok (spec, seed) ->
              (e.Lp_bench.Corpus.spec, fun () -> Lp_gen.Gen.generate spec ~seed)
          | Error msg -> Alcotest.fail msg)
        entries

(* --- random blocks ------------------------------------------------ *)

let vars = [ "a"; "b"; "c"; "d" ]

(* Blocks built from a few templates over independent operands, so many
   nodes share a priority, with multiplies, divides, two-cycle ALU
   shifts and memory ports among them. *)
let tie_block_gen =
  let open Lp_ir.Builder in
  QCheck.Gen.(
    let operand = map (fun i -> var (List.nth vars (i mod 4))) small_nat in
    let template =
      oneof
        [
          map2 (fun x y -> x * y) operand operand;
          map2 (fun x y -> x / (y ||| Lp_ir.Builder.int 1)) operand operand;
          map2 (fun x y -> x + y) operand operand;
          map2 (fun x y -> x <<< y) operand operand;
          map2 (fun x y -> (x * y) + (x - y)) operand operand;
          map (fun x -> load "m" (x &&& Lp_ir.Builder.int 15)) operand;
          map2 (fun x y -> x < y) operand operand;
        ]
    in
    let stmt =
      frequency
        [
          (5, map2 (fun i e -> List.nth vars (i mod 4) := e) small_nat template);
          (2, map2 (fun i e -> store "m" (var (List.nth vars (i mod 4)) &&& Lp_ir.Builder.int 15) e)
                small_nat template);
          (1, map (fun e -> print e) template);
        ]
    in
    list_size (int_range 1 24) stmt)

let random_block_gen =
  QCheck.Gen.oneof
    [
      tie_block_gen;
      Lp_testkit.block_gen ~vars ~arrays:[ ("m", 16) ];
    ]

let print_blocks blocks =
  String.concat "\n--\n"
    (List.map
       (fun b ->
         String.concat "\n"
           (List.map (Format.asprintf "%a" Lp_ir.Printer.pp_stmt) b))
       blocks)

let prop_random =
  QCheck.Test.make ~count:300 ~name:"random blocks agree on every preset"
    (QCheck.make ~print:print_blocks
       QCheck.Gen.(list_size (int_range 1 3) random_block_gen))
    (fun blocks ->
      let dfgs = List.filter_map (fun b -> Dfg.of_segment [] b) blocks in
      List.for_all
        (fun rs ->
          match compare_segments ~what:"random" dfgs rs with
          | Ok _ -> true
          | Error msg -> QCheck.Test.fail_report msg)
        presets)

(* The flat DFG against the Digraph lowering it replaced, field for
   field: each node's op and array, and its predecessors and successors
   in order. *)
let prop_lowering =
  QCheck.Test.make ~count:500 ~name:"flat DFG equals the Digraph lowering"
    (QCheck.make ~print:(fun b -> print_blocks [ b ]) random_block_gen)
    (fun block ->
      match (Dfg.of_segment [] block, Sched_ref.Lowering.of_segment [] block) with
      | None, None -> true
      | Some d, Some r ->
          let g = r.Sched_ref.Lowering.g in
          Dfg.node_count d = Digraph.node_count g
          && List.for_all
               (fun v ->
                 (Dfg.op d v, Dfg.array d v) = Lp_graph.Vec.get r.Sched_ref.Lowering.infos v
                 && Dfg.preds d v = Digraph.preds g v
                 && Dfg.succs d v = Digraph.succs g v)
               (List.init (Dfg.node_count d) Fun.id)
      | Some _, None | None, Some _ -> false)

(* --- allocation ----------------------------------------------------- *)

(* Evaluating a candidate allocates its results (schedule arrays, the
   binding, the netlist) and per-call scratch arrays, not a list per
   node and control step: bound the minor words per scheduled node of
   [Candidate.evaluate] over gen:deep:1's 64 (cluster x default set)
   pairs. The rescanning scheduler allocated about 3,270 words per node
   there; this one about 110. Minor words are a count, not a timing. *)
let test_candidate_alloc () =
  let spec, seed = Result.get_ok (Lp_gen.Gen.parse_name "gen:deep:1") in
  let program = Lp_gen.Gen.generate spec ~seed in
  let profile = (Lp_ir.Interp.run program).Lp_ir.Interp.profile in
  let chain = Cluster.decompose program in
  let preselected =
    Lp_preselect.Preselect.pre_select
      (Lp_preselect.Preselect.create program chain)
      ~profile ~n_max:spec.Lp_gen.Gen.clusters
  in
  let pairs =
    List.concat_map
      (fun (c, _) -> List.map (fun rs -> (c, rs)) Resource_set.default_sets)
      preselected
  in
  let evaluate (c, rs) =
    Lp_core.Candidate.evaluate ~profile ~e_trans_j:0.0 c rs
  in
  ignore (evaluate (List.hd pairs));
  let w0 = Gc.minor_words () in
  let results = List.map evaluate pairs in
  let words = Gc.minor_words () -. w0 in
  let nodes =
    List.fold_left
      (fun acc -> function
        | None -> acc
        | Some (c : Lp_core.Candidate.t) ->
            List.fold_left
              (fun acc (s : Bind.segment_schedule) ->
                acc + Dfg.node_count s.Bind.sched.Sched.dfg)
              acc c.Lp_core.Candidate.segments)
      0 results
  in
  Alcotest.(check int) "pairs" 64 (List.length pairs);
  let per_node = words /. float_of_int nodes in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words per scheduled node (%d nodes) < 250"
       per_node nodes)
    true (per_node < 250.0)

(* --- the oracle's topological sort and longest paths ----------------- *)

module Topo = Sched_ref.Topo
module Paths = Sched_ref.Paths

let check = Alcotest.(check int)
let check_b = Alcotest.(check bool)
let check_l = Alcotest.(check (list int))

let diamond () =
  (* 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3 *)
  let g = Digraph.create () in
  ignore (Digraph.add_nodes g 4);
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 0 2;
  Digraph.add_edge g 1 3;
  Digraph.add_edge g 2 3;
  g

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

let () =
  Alcotest.run "sched_diff"
    [
      ( "programs",
        [
          Alcotest.test_case "apps and protocol" `Quick (test_programs apps);
          Alcotest.test_case "corpus programs" `Slow (test_programs corpus);
        ] );
      ( "random",
        [
          QCheck_alcotest.to_alcotest prop_random;
          QCheck_alcotest.to_alcotest prop_lowering;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "candidate evaluation per node" `Quick
            test_candidate_alloc;
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
      ("properties", [ QCheck_alcotest.to_alcotest prop_topo_respects_edges ]);
    ]
