(* List scheduler: precedence, resource caps, latency handling,
   feasibility, ASAP/ALAP/mobility, plus random-DAG properties driven
   through random straight-line blocks. *)

module Dfg = Lp_ir.Dfg
module Sched = Lp_sched.Sched
module Resource = Lp_tech.Resource
module Resource_set = Lp_tech.Resource_set

let seg exprs stmts = Dfg.of_segment_exn exprs stmts

(* a*b + c*d : two muls then an add. *)
let two_muls () =
  let open Lp_ir.Builder in
  seg [ (var "a" * var "b") + (var "c" * var "d") ] []

let test_precedence () =
  let dfg = two_muls () in
  let s = Option.get (Sched.schedule dfg Resource_set.medium_dsp) in
  Dfg.iter_edges
    (fun u v ->
      Alcotest.(check bool) "producer finishes first" true
        (Sched.finish s u <= s.Sched.start.(v)))
    dfg

let test_resource_contention () =
  (* medium_dsp has one multiplier (2-cycle): the two muls serialise. *)
  let dfg = two_muls () in
  let s = Option.get (Sched.schedule dfg Resource_set.medium_dsp) in
  let muls =
    List.filter
      (fun v -> Dfg.op dfg v = Lp_tech.Op.Mul)
      (List.init (Dfg.node_count dfg) Fun.id)
  in
  let starts = List.sort compare (List.map (fun v -> s.Sched.start.(v)) muls) in
  Alcotest.(check bool) "muls serialise on one unit" true
    (match starts with [ a; b ] -> b >= a + 2 | _ -> false);
  (* large_dsp has two multipliers: both start at 0. *)
  let s2 = Option.get (Sched.schedule dfg Resource_set.large_dsp) in
  let starts2 = List.map (fun v -> s2.Sched.start.(v)) muls in
  Alcotest.(check (list int)) "parallel on two units" [ 0; 0 ] starts2;
  Alcotest.(check bool) "more hardware, shorter schedule" true
    (s2.Sched.length < s.Sched.length)

let test_infeasible () =
  (* tiny has no multiplier. *)
  Alcotest.(check bool) "mul infeasible on tiny" true
    (Option.is_none (Sched.schedule (two_muls ()) Resource_set.tiny))

let test_empty () =
  let dfg = seg [] [] in
  let s = Option.get (Sched.schedule dfg Resource_set.tiny) in
  Alcotest.(check int) "empty schedule" 0 s.Sched.length

let test_smallest_kind_first () =
  (* An add alone must land on the adder, not the ALU, in a set with
     both. *)
  let dfg = (let open Lp_ir.Builder in seg [ var "a" + var "b" ] []) in
  let s = Option.get (Sched.schedule dfg Resource_set.medium_dsp) in
  Alcotest.(check string) "picks the adder" "adder"
    (Resource.kind_to_string s.Sched.kind.(0))

let test_latency_recorded () =
  let dfg = (let open Lp_ir.Builder in seg [ var "a" * var "b" ] []) in
  let s = Option.get (Sched.schedule dfg Resource_set.medium_dsp) in
  Alcotest.(check int) "mul takes 2" 2 s.Sched.latency.(0);
  Alcotest.(check int) "length covers latency" 2 s.Sched.length

let test_ops_in_step () =
  let dfg = (let open Lp_ir.Builder in seg [ var "a" * var "b" ] []) in
  let s = Option.get (Sched.schedule dfg Resource_set.medium_dsp) in
  Alcotest.(check (list int)) "active in step 0" [ 0 ] (Sched.ops_in_step s 0);
  Alcotest.(check (list int)) "active in step 1" [ 0 ] (Sched.ops_in_step s 1);
  Alcotest.(check (list int)) "idle in step 2" [] (Sched.ops_in_step s 2)

let test_asap_alap_mobility () =
  let dfg = two_muls () in
  let asap = Sched.asap dfg in
  let cp = Sched.critical_path dfg in
  Alcotest.(check int) "critical path = mul + add" 3 cp;
  let alap = Sched.alap dfg ~length:cp in
  let mob = Sched.mobility dfg in
  Array.iteri
    (fun v a ->
      Alcotest.(check bool) "asap <= alap" true (a <= alap.(v));
      Alcotest.(check int) "mobility consistent" (alap.(v) - a) mob.(v))
    asap;
  (* Everything here is on the critical path: mobility all zero. *)
  Alcotest.(check (array int)) "all critical" [| 0; 0; 0 |] mob

let test_deterministic () =
  let block =
    let open Lp_ir.Builder in
    [
      "x" := (var "a" + var "b") ^^^ var "c";
      store "m" (var "x" &&& int 7) (var "x");
      "y" := load "m" (int 3) - var "x";
      print (var "y");
    ]
  in
  let s1 = Option.get (Sched.schedule (seg [] block) Resource_set.small) in
  let s2 = Option.get (Sched.schedule (seg [] block) Resource_set.small) in
  Alcotest.(check (array int)) "same starts" s1.Sched.start s2.Sched.start

(* --- properties over random blocks --- *)

let block_arb =
  QCheck.make
    (Lp_testkit.block_gen ~vars:[ "a"; "b"; "c" ] ~arrays:[ ("m", 16) ])

let schedule_of block rset =
  Option.bind (Dfg.of_segment [] block) (fun dfg ->
      Option.map (fun s -> (dfg, s)) (Sched.schedule dfg rset))

let prop_precedence_random =
  QCheck.Test.make ~name:"random blocks: precedence holds" ~count:150 block_arb
    (fun block ->
      match schedule_of block Resource_set.large_dsp with
      | None -> true
      | Some (dfg, s) ->
          let ok = ref true in
          Dfg.iter_edges
            (fun u v -> if Sched.finish s u > s.Sched.start.(v) then ok := false)
            dfg;
          !ok)

let prop_capacity_random =
  QCheck.Test.make ~name:"random blocks: instance caps respected" ~count:150
    block_arb (fun block ->
      match schedule_of block Resource_set.small with
      | None -> true
      | Some (dfg, s) ->
          (* In every control step, at most [count k] ops occupy kind
             k. *)
          let ok = ref true in
          for t = 0 to s.Sched.length - 1 do
            let active = Sched.ops_in_step s t in
            List.iter
              (fun k ->
                let n =
                  List.length
                    (List.filter (fun v -> s.Sched.kind.(v) = k) active)
                in
                if n > Resource_set.count Resource_set.small k then ok := false)
              Resource.all_kinds
          done;
          ignore dfg;
          !ok)

let prop_length_at_least_critical =
  QCheck.Test.make ~name:"random blocks: length >= unconstrained critical path"
    ~count:150 block_arb (fun block ->
      match schedule_of block Resource_set.large_dsp with
      | None -> true
      | Some (dfg, s) -> s.Sched.length >= Sched.critical_path dfg)

let prop_all_scheduled =
  QCheck.Test.make ~name:"random blocks: every op gets a start" ~count:150
    block_arb (fun block ->
      match schedule_of block Resource_set.small with
      | None -> true
      | Some (_, s) -> Array.for_all (fun t -> t >= 0) s.Sched.start)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "lp_sched"
    [
      ( "unit",
        [
          Alcotest.test_case "precedence" `Quick test_precedence;
          Alcotest.test_case "resource contention" `Quick test_resource_contention;
          Alcotest.test_case "infeasible set" `Quick test_infeasible;
          Alcotest.test_case "empty dfg" `Quick test_empty;
          Alcotest.test_case "smallest kind first" `Quick test_smallest_kind_first;
          Alcotest.test_case "latency recorded" `Quick test_latency_recorded;
          Alcotest.test_case "ops_in_step" `Quick test_ops_in_step;
          Alcotest.test_case "asap/alap/mobility" `Quick test_asap_alap_mobility;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
        ] );
      ( "properties",
        qcheck
          [
            prop_precedence_random;
            prop_capacity_random;
            prop_length_at_least_critical;
            prop_all_scheduled;
          ] );
    ]
