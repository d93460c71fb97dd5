(* Force-directed scheduling: invariants, latency budgets, and the
   hardware-balancing behaviour vs the list scheduler. *)

module Dfg = Lp_ir.Dfg
module Sched = Lp_sched.Sched
module Fds = Lp_sched.Fds
module Bind = Lp_bind.Bind
module Resource_set = Lp_tech.Resource_set

let two_muls =
  let open Lp_ir.Builder in
  Dfg.of_segment_exn [ (var "a" * var "b") + (var "c" * var "d") ] []

let precedence_ok dfg (s : Sched.t) =
  let ok = ref true in
  Dfg.iter_edges
    (fun u v -> if Sched.finish s u > s.Sched.start.(v) then ok := false)
    dfg;
  !ok

let test_min_latency () =
  Alcotest.(check int) "mul(2) + add(1)" 3 (Fds.min_latency two_muls)

let test_infeasible_budget () =
  Alcotest.(check bool) "below critical path" true
    (Option.is_none (Fds.schedule two_muls ~latency:2))

let test_tight_budget_parallelises () =
  (* At the critical path, both muls must run in parallel: two
     multiplier instances. *)
  let s = Option.get (Fds.schedule two_muls ~latency:3) in
  Alcotest.(check bool) "precedence" true (precedence_ok two_muls s);
  Alcotest.(check bool) "fits budget" true (s.Sched.length <= 3);
  let b = Bind.bind [ { Bind.sched = s; times = 1 } ] in
  Alcotest.(check int) "two multipliers" 2
    (List.assoc Lp_tech.Resource.Multiplier b.Bind.instances)

let test_relaxed_budget_shares_multiplier () =
  (* With slack, force balancing serialises the muls onto one unit —
     the whole point of FDS. *)
  let s = Option.get (Fds.schedule two_muls ~latency:5) in
  Alcotest.(check bool) "precedence" true (precedence_ok two_muls s);
  Alcotest.(check bool) "fits budget" true (s.Sched.length <= 5);
  let b = Bind.bind [ { Bind.sched = s; times = 1 } ] in
  Alcotest.(check int) "one multiplier" 1
    (List.assoc Lp_tech.Resource.Multiplier b.Bind.instances)

let test_empty () =
  let empty = Dfg.of_segment_exn [] [] in
  let s = Option.get (Fds.schedule empty ~latency:0) in
  Alcotest.(check int) "empty" 0 s.Sched.length

let test_fds_vs_list_tradeoff () =
  (* Same DFG: the list scheduler under a rich set is at least as fast;
     FDS with a relaxed budget uses no more instances. *)
  let dfg = two_muls in
  let list_s = Option.get (Sched.schedule dfg Resource_set.large_dsp) in
  let fds_s = Option.get (Fds.schedule dfg ~latency:(2 * Fds.min_latency dfg)) in
  Alcotest.(check bool) "list is no slower" true
    (list_s.Sched.length <= fds_s.Sched.length);
  let insts s =
    let b = Bind.bind [ { Bind.sched = s; times = 1 } ] in
    List.fold_left (fun acc (_, n) -> acc + n) 0 b.Bind.instances
  in
  Alcotest.(check bool) "fds needs no more hardware" true
    (insts fds_s <= insts list_s)

let block_arb =
  QCheck.make (Lp_testkit.block_gen ~vars:[ "a"; "b"; "c" ] ~arrays:[ ("m", 16) ])

let prop_invariants =
  QCheck.Test.make ~name:"random blocks: FDS invariants" ~count:150 block_arb
    (fun block ->
      match Dfg.of_segment [] block with
      | None -> true
      | Some dfg -> (
          let budget = Fds.min_latency dfg + 2 in
          match Fds.schedule dfg ~latency:budget with
          | None -> false
          | Some s ->
              precedence_ok dfg s
              && s.Sched.length <= budget
              && Array.for_all (fun t -> t >= 0) s.Sched.start))

(* Per-case monotonicity does NOT hold for greedy force-directed
   scheduling (a heuristic can occasionally spend an extra unit when
   given slack); in aggregate over many DFGs the slackened schedules
   must need clearly less hardware. *)
let test_budget_monotone_in_aggregate () =
  let rand = Random.State.make [| 20260704 |] in
  let tight_total = ref 0 and slack_total = ref 0 in
  for _ = 1 to 120 do
    let block =
      QCheck.Gen.generate1 ~rand
        (Lp_testkit.block_gen ~vars:[ "a"; "b"; "c" ] ~arrays:[ ("m", 16) ])
    in
    match Dfg.of_segment [] block with
    | None -> ()
    | Some dfg -> (
        let m = Fds.min_latency dfg in
        match
          (Fds.schedule dfg ~latency:m, Fds.schedule dfg ~latency:(2 * m))
        with
        | Some tight, Some slack ->
            let insts s =
              let b = Bind.bind [ { Bind.sched = s; times = 1 } ] in
              List.fold_left (fun acc (_, n) -> acc + n) 0 b.Bind.instances
            in
            tight_total := !tight_total + insts tight;
            slack_total := !slack_total + insts slack
        | _ -> Alcotest.fail "schedule at >= min latency must succeed")
  done;
  Alcotest.(check bool)
    (Printf.sprintf "aggregate hardware shrinks with slack (%d <= %d)"
       !slack_total !tight_total)
    true
    (!slack_total <= !tight_total)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "lp_fds"
    [
      ( "unit",
        [
          Alcotest.test_case "min latency" `Quick test_min_latency;
          Alcotest.test_case "infeasible budget" `Quick test_infeasible_budget;
          Alcotest.test_case "tight budget parallelises" `Quick
            test_tight_budget_parallelises;
          Alcotest.test_case "relaxed budget shares" `Quick
            test_relaxed_budget_shares_multiplier;
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "fds vs list trade-off" `Quick test_fds_vs_list_tradeoff;
        ] );
      ( "properties",
        qcheck [ prop_invariants ]
        @ [
            Alcotest.test_case "aggregate slack monotonicity" `Quick
              test_budget_monotone_in_aggregate;
          ] );
    ]
