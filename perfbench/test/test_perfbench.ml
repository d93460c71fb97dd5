(* The benchmark's own rules: whole-round counting, the percentile
   reporting rule, and the golden check that feeds failed_frac. *)

open Perfbench

let test_whole_rounds () =
  let n = 7 in
  let seen = Array.make n 0 and order = ref [] in
  Stats.rounds ~rng:(Random.State.make [| 3 |]) ~seconds:0.002 ~n (fun i ->
      seen.(i) <- seen.(i) + 1;
      order := i :: !order);
  let total = List.length !order in
  Alcotest.(check bool) "several rounds" true (total > n);
  Alcotest.(check int) "whole rounds" 0 (total mod n);
  Array.iter (fun c -> Alcotest.(check int) "each program equally" (total / n) c) seen

let test_one_round_minimum () =
  let order = ref [] in
  Stats.rounds ~rng:(Random.State.make [| 1 |]) ~seconds:0.0 ~n:5 (fun i ->
      order := i :: !order);
  Alcotest.(check (list int))
    "a zero budget still runs one whole round" [ 0; 1; 2; 3; 4 ]
    (List.sort compare !order)

let test_samples_grow () =
  let b = Stats.samples () in
  for i = 0 to 2999 do
    Stats.record b ~prog:(i mod 7) ~latency_s:(float_of_int i) ~bad:(i = 2500)
  done;
  Alcotest.(check int) "all kept" 3000 b.len;
  Alcotest.(check (float 0.0)) "latency kept across growth" 1234.0
    (Float.Array.get b.lat 1234);
  Alcotest.(check bool) "flag kept" true b.bad.(2500)

let test_percentile_rule () =
  let xs n = List.init n (fun i -> float_of_int (i + 1)) in
  Alcotest.(check bool) "99 samples: 9 beyond p90" false (Stats.reportable ~pct:90 99);
  Alcotest.(check bool) "100 samples: 10 beyond p90" true (Stats.reportable ~pct:90 100);
  Alcotest.(check (option (float 0.0))) "p90 withheld" None (Stats.percentile ~pct:90 (xs 99));
  Alcotest.(check (option (float 0.0))) "p90 of 1..100" (Some 90.0)
    (Stats.percentile ~pct:90 (xs 100));
  Alcotest.(check bool) "p50 needs 20" true
    (Stats.reportable ~pct:50 20 && not (Stats.reportable ~pct:50 19));
  Alcotest.(check (float 0.0)) "median of even count" 2.5 (Stats.median (xs 4))

let cfg goldens =
  {
    Workload.seed = 1;
    corpus = "../../bench/corpus.json";
    goldens;
    scratch = ".";
  }

let goldens = lazy (Golden.load "../goldens.json")

let failed_frac (inst : Workload.instance) =
  let ph = inst.phase ~between:ignore ~seconds:0.0 in
  let bad = inst.verify () in
  inst.close ();
  let failed = Workload.failed [ ph ] (List.map fst bad) in
  float_of_int failed /. float_of_int (List.length ph.samples)

let test_goldens_hold () =
  let inst = Workload.setup Workload.Paper_cold (cfg (Lazy.force goldens)) in
  Alcotest.(check (float 0.0)) "paper-cold at this commit" 0.0 (failed_frac inst)

let wrong_flow (g : Golden.t) =
  {
    g with
    flows =
      List.map
        (fun (n, (f : Golden.flow)) ->
          if n = "digs" then (n, { f with energy_saving = f.energy_saving +. 0.01 })
          else (n, f))
        g.flows;
  }

let test_wrong_flow_golden () =
  let inst =
    Workload.setup Workload.Paper_cold (cfg (wrong_flow (Lazy.force goldens)))
  in
  let frac = failed_frac inst in
  Alcotest.(check (float 1e-9)) "exactly the digs ops fail" (1.0 /. 7.0) frac

let test_wrong_payload_golden () =
  let g = Lazy.force goldens in
  let g =
    {
      g with
      payloads =
        List.map (fun (n, d) -> if n = "digs" then (n, String.make 32 '0') else (n, d)) g.payloads;
    }
  in
  let inst = Workload.setup Workload.Service_warm (cfg g) in
  Alcotest.(check bool) "service payload mismatch counts" true (failed_frac inst > 0.0)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "whole rounds" `Quick test_whole_rounds;
          Alcotest.test_case "one round minimum" `Quick test_one_round_minimum;
          Alcotest.test_case "samples grow" `Quick test_samples_grow;
          Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
        ] );
      ( "goldens",
        [
          Alcotest.test_case "hold at this commit" `Quick test_goldens_hold;
          Alcotest.test_case "wrong flow golden" `Quick test_wrong_flow_golden;
          Alcotest.test_case "wrong payload golden" `Quick test_wrong_payload_golden;
        ] );
    ]
