(* The parallel evaluation engine: pool semantics (ordering, exception
   propagation, degenerate inputs), sequential/parallel equivalence of
   the whole partitioning flow, and the candidate memo cache. *)

module Pool = Lp_parallel.Pool
module Cancel = Lp_parallel.Cancel
module Parmap = Lp_parallel.Parmap
module Flow = Lp_core.Flow
module Memo = Lp_core.Memo
module Candidate = Lp_core.Candidate
module Cluster = Lp_cluster.Cluster
module System = Lp_system.System
module Apps = Lp_apps.Apps

(* --- Pool ------------------------------------------------------- *)

let test_map_ordering () =
  Pool.with_pool ~domains:3 (fun pool ->
      List.iter
        (fun n ->
          let input = Array.init n (fun i -> i) in
          let expected = Array.map (fun i -> (i * i) + 1) input in
          let got = Pool.map pool (fun i -> (i * i) + 1) input in
          Alcotest.(check (array int))
            (Printf.sprintf "ordering, n = %d" n)
            expected got)
        [ 0; 1; 2; 3; 7; 64; 1000 ])

let test_map_list () =
  Pool.with_pool ~domains:2 (fun pool ->
      Alcotest.(check (list string))
        "map_list order"
        [ "0"; "1"; "2"; "3"; "4" ]
        (Pool.map_list pool string_of_int [ 0; 1; 2; 3; 4 ]))

let test_oversubscribed_pool () =
  (* Many more workers than items: every item still mapped exactly
     once, in order. *)
  Pool.with_pool ~domains:8 (fun pool ->
      Alcotest.(check (array int))
        "8 workers, 3 items" [| 10; 11; 12 |]
        (Pool.map pool (fun i -> i + 10) [| 0; 1; 2 |]))

let test_exception_propagation () =
  Pool.with_pool ~domains:3 (fun pool ->
      let boom i = if i = 41 then failwith "boom 41" else i in
      (match Pool.map pool boom (Array.init 100 (fun i -> i)) with
      | _ -> Alcotest.fail "expected the task exception to propagate"
      | exception Failure msg ->
          Alcotest.(check string) "task exception surfaces" "boom 41" msg);
      (* The pool survives a failed map. *)
      Alcotest.(check (array int))
        "pool usable after failure" [| 0; 2; 4 |]
        (Pool.map pool (fun i -> 2 * i) [| 0; 1; 2 |]))

let test_lowest_failure_wins () =
  (* Several failing tasks: deterministically report the lowest index,
     no matter which worker finished first. *)
  Pool.with_pool ~domains:4 (fun pool ->
      for _ = 1 to 20 do
        match
          Pool.map pool
            (fun i -> if i mod 7 = 3 then failwith (string_of_int i) else i)
            (Array.init 64 (fun i -> i))
        with
        | _ -> Alcotest.fail "expected an exception"
        | exception Failure msg ->
            Alcotest.(check string) "first failing chunk wins" "3" msg
      done)

let test_sequential_pool () =
  (* domains = 0 is a plain sequential map — and must not hang. *)
  Pool.with_pool ~domains:0 (fun pool ->
      Alcotest.(check int) "no workers" 0 (Pool.size pool);
      Alcotest.(check (array int))
        "sequential fallback" [| 1; 4; 9 |]
        (Pool.map pool (fun i -> i * i) [| 1; 2; 3 |]))

let test_shutdown_rejects_map () =
  let pool = Pool.create ~domains:1 () in
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* idempotent *)
  match Pool.map pool (fun i -> i) [| 1; 2 |] with
  | _ -> Alcotest.fail "map on a shut-down pool must be rejected"
  | exception Invalid_argument _ -> ()

(* --- cancellation ------------------------------------------------ *)

let test_map_cancelled_mid_run () =
  (* 64 slow elements over 3 workers split into many chunks; the very
     first element fires the token, so most chunks must observe it and
     fail fast instead of running. *)
  Pool.with_pool ~domains:3 (fun pool ->
      let cancel = Cancel.create () in
      let started = Atomic.make 0 in
      let n = 64 in
      let f i =
        Atomic.incr started;
        if i = 0 then Cancel.fire cancel else Unix.sleepf 0.002;
        i
      in
      (match Pool.map ~cancel pool f (Array.init n (fun i -> i)) with
      | _ -> Alcotest.fail "expected Cancel.Cancelled"
      | exception Cancel.Cancelled -> ());
      Alcotest.(check bool)
        "chunks after the fire never started" true
        (Atomic.get started < n);
      (* the pool survives a cancelled map, and a fresh map works *)
      Alcotest.(check (array int))
        "pool reusable after cancellation" [| 0; 1; 4 |]
        (Pool.map pool (fun i -> i * i) [| 0; 1; 2 |]))

let test_prefired_cancel () =
  Pool.with_pool ~domains:2 (fun pool ->
      let cancel = Cancel.create () in
      Cancel.fire cancel;
      Alcotest.(check bool) "fired observable" true (Cancel.fired cancel);
      let ran = Atomic.make false in
      (match
         Pool.map ~cancel pool
           (fun i ->
             Atomic.set ran true;
             i)
           [| 1; 2; 3 |]
       with
      | _ -> Alcotest.fail "map with a fired token must raise"
      | exception Cancel.Cancelled -> ());
      Alcotest.(check bool) "no element ran" false (Atomic.get ran);
      (* a submitted task whose token fired resolves without running *)
      let fut = Pool.submit ~cancel pool (fun () -> Atomic.set ran true) in
      (match Pool.await fut with
      | () -> Alcotest.fail "await must re-raise the cancellation"
      | exception Cancel.Cancelled -> ());
      Alcotest.(check bool) "task body never ran" false (Atomic.get ran))

let test_await_until () =
  Pool.with_pool ~domains:1 (fun pool ->
      let gate = Atomic.make false in
      let fut =
        Pool.submit pool (fun () ->
            while not (Atomic.get gate) do
              Unix.sleepf 0.002
            done;
            99)
      in
      let t0 = Unix.gettimeofday () in
      (match Pool.await_until fut ~deadline:(t0 +. 0.05) with
      | None -> ()
      | Some _ -> Alcotest.fail "must time out while the task is gated");
      let waited = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        "timeout waited at least until the deadline" true (waited >= 0.05);
      Alcotest.(check bool)
        "timeout within the waker's granularity" true (waited < 2.0);
      Atomic.set gate true;
      (match Pool.await_until fut ~deadline:(Unix.gettimeofday () +. 5.0) with
      | Some v -> Alcotest.(check int) "resolved value" 99 v
      | None -> Alcotest.fail "must resolve well before the deadline");
      (* await_until is repeatable on a resolved future *)
      Alcotest.(check (option int))
        "repeat await_until" (Some 99)
        (Pool.await_until fut ~deadline:(Unix.gettimeofday () +. 1.0)))

let test_await_until_reraises () =
  Pool.with_pool ~domains:1 (fun pool ->
      let fut = Pool.submit pool (fun () -> failwith "kaput") in
      match Pool.await_until fut ~deadline:(Unix.gettimeofday () +. 5.0) with
      | _ -> Alcotest.fail "expected the task's exception"
      | exception Failure msg ->
          Alcotest.(check string) "task exception re-raised" "kaput" msg)

let test_parmap () =
  Alcotest.(check (list int))
    "parmap list" [ 2; 4; 6 ]
    (Parmap.list ~domains:2 (fun x -> 2 * x) [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "parmap empty" [] (Parmap.list (fun x -> x) [])

(* --- flow determinism ------------------------------------------- *)

let test_flow_determinism () =
  (* jobs = 1 and jobs = 4 must produce identical partitions on every
     bundled application. *)
  List.iter
    (fun (e : Apps.entry) ->
      let run jobs =
        let options = { Flow.default_options with Flow.jobs } in
        Flow.run ~options ~name:e.name (e.build ())
      in
      let seq = run 1 and par = run 4 in
      let cids (r : Flow.result) =
        List.map
          (fun s -> s.Flow.candidate.Candidate.cluster.Cluster.cid)
          r.Flow.selected
      in
      let check what = Alcotest.check what in
      check (Alcotest.float 0.0) (e.name ^ ": energy saving")
        seq.Flow.energy_saving par.Flow.energy_saving;
      check (Alcotest.float 0.0) (e.name ^ ": time change") seq.Flow.time_change
        par.Flow.time_change;
      check Alcotest.int (e.name ^ ": cells") seq.Flow.total_cells
        par.Flow.total_cells;
      check
        Alcotest.(list int)
        (e.name ^ ": selected clusters") (cids seq) (cids par);
      check Alcotest.int (e.name ^ ": candidates evaluated")
        (List.length seq.Flow.candidates)
        (List.length par.Flow.candidates);
      check
        Alcotest.(list int)
        (e.name ^ ": outputs") seq.Flow.partitioned.System.outputs
        par.Flow.partitioned.System.outputs)
    Apps.all

(* --- memo -------------------------------------------------------- *)

let eval_fixture () =
  (* A small two-kernel program with a movable cluster. *)
  let open Lp_ir.Builder in
  let p =
    program
      ~arrays:[ array "a" 64 ]
      [
        func "main" ~params:[] ~locals:[ "s" ]
          [
            for_ "i" (int 0) (int 64)
              [ store "a" (var "i") ((var "i" * int 3) + int 7) ];
            for_ "i" (int 0) (int 64)
              [ "s" := var "s" + load "a" (var "i") ];
            print (var "s");
          ];
      ]
  in
  let interp = Lp_ir.Interp.run p in
  let chain = Cluster.decompose p in
  let cluster =
    List.find (fun c -> Cluster.asic_candidate c) chain
  in
  (interp.Lp_ir.Interp.profile, cluster)

let test_memo_hit () =
  let profile, cluster = eval_fixture () in
  let rset = Lp_tech.Resource_set.medium_dsp in
  Memo.reset ();
  let first = Memo.evaluate ~e_trans_j:1e-6 (Memo.prepare ~profile cluster) rset in
  let s1 = Memo.stats () in
  Alcotest.(check int) "first call misses" 1 s1.Memo.misses;
  Alcotest.(check int) "no hit yet" 0 s1.Memo.hits;
  let second =
    Memo.evaluate ~e_trans_j:1e-6 (Memo.prepare ~profile cluster) rset
  in
  let s2 = Memo.stats () in
  Alcotest.(check int) "second call hits" 1 s2.Memo.hits;
  Alcotest.(check int) "no extra miss" 1 s2.Memo.misses;
  Alcotest.(check int) "one entry" 1 s2.Memo.entries;
  match (first, second) with
  | Some a, Some b ->
      Alcotest.(check int) "cells equal" a.Candidate.cells b.Candidate.cells;
      Alcotest.(check int) "asic cycles equal" a.Candidate.asic_cycles
        b.Candidate.asic_cycles;
      Alcotest.(check int) "up cycles equal" a.Candidate.up_cycles
        b.Candidate.up_cycles;
      Alcotest.(check (float 0.0)) "utilisation equal" a.Candidate.u_asic
        b.Candidate.u_asic;
      Alcotest.(check (float 0.0)) "rough energy equal"
        a.Candidate.e_asic_rough_j b.Candidate.e_asic_rough_j;
      Alcotest.(check (float 0.0)) "transfer energy restamped"
        a.Candidate.e_trans_j b.Candidate.e_trans_j
  | _ -> Alcotest.fail "fixture cluster must evaluate to a candidate"

let test_memo_restamps_transfer_energy () =
  (* e_trans_j is not part of the key; a hit carries the caller's
     value. *)
  let profile, cluster = eval_fixture () in
  let rset = Lp_tech.Resource_set.medium_dsp in
  Memo.reset ();
  let _ = Memo.evaluate ~e_trans_j:1e-6 (Memo.prepare ~profile cluster) rset in
  match Memo.evaluate ~e_trans_j:5e-5 (Memo.prepare ~profile cluster) rset with
  | Some c ->
      Alcotest.(check int) "served from cache" 1 (Memo.stats ()).Memo.hits;
      Alcotest.(check (float 0.0)) "restamped" 5e-5 c.Candidate.e_trans_j
  | None -> Alcotest.fail "fixture cluster must evaluate to a candidate"

let test_memo_key_sensitivity () =
  let profile, cluster = eval_fixture () in
  Memo.reset ();
  let _ =
    Memo.evaluate ~e_trans_j:0.0 (Memo.prepare ~profile cluster)
      Lp_tech.Resource_set.tiny
  in
  let _ =
    Memo.evaluate ~e_trans_j:0.0 (Memo.prepare ~profile cluster)
      Lp_tech.Resource_set.small
  in
  let _ =
    Memo.evaluate ~scheduler:(Candidate.Fds 1.0) ~e_trans_j:0.0
      (Memo.prepare ~profile cluster)
      Lp_tech.Resource_set.small
  in
  let doubled = Array.map (fun n -> 2 * n) profile in
  let _ =
    Memo.evaluate ~e_trans_j:0.0
      (Memo.prepare ~profile:doubled cluster)
      Lp_tech.Resource_set.small
  in
  let s = Memo.stats () in
  Alcotest.(check int)
    "resource set, scheduler and profile all key the cache" 4 s.Memo.misses;
  Alcotest.(check int) "no spurious hits" 0 s.Memo.hits

(* Persisted entries are named by their keys, so preparing clusters once
   per flow must not move a single key byte: one digest over every
   cluster x default set key of the six apps, recorded before the
   statement half of the key was hoisted out of the per-set loop. *)
let test_memo_key_pin () =
  let keys = Buffer.create 4096 and n = ref 0 in
  List.iter
    (fun (e : Lp_apps.Apps.entry) ->
      let p = e.Lp_apps.Apps.build () in
      let profile = (Lp_ir.Interp.run p).Lp_ir.Interp.profile in
      List.iter
        (fun c ->
          let prepared = Memo.prepare ~profile c in
          List.iter
            (fun rs ->
              incr n;
              Buffer.add_string keys
                (Memo.key ~scheduler:Candidate.List_sched prepared rs))
            Lp_tech.Resource_set.default_sets)
        (Cluster.decompose p))
    Lp_apps.Apps.all;
  Alcotest.(check int) "keys" 136 !n;
  Alcotest.(check string) "digest over all keys"
    "b31098aa31697eae674bd5007b258708"
    (Digest.to_hex (Digest.string (Buffer.contents keys)))

let () =
  Alcotest.run "lp_parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "deterministic ordering" `Quick test_map_ordering;
          Alcotest.test_case "map over lists" `Quick test_map_list;
          Alcotest.test_case "oversubscribed" `Quick test_oversubscribed_pool;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
          Alcotest.test_case "lowest failure wins" `Quick
            test_lowest_failure_wins;
          Alcotest.test_case "sequential (0 workers)" `Quick
            test_sequential_pool;
          Alcotest.test_case "shutdown" `Quick test_shutdown_rejects_map;
          Alcotest.test_case "parmap" `Quick test_parmap;
        ] );
      ( "cancel",
        [
          Alcotest.test_case "map cancelled mid-run" `Quick
            test_map_cancelled_mid_run;
          Alcotest.test_case "pre-fired token" `Quick test_prefired_cancel;
          Alcotest.test_case "await_until" `Quick test_await_until;
          Alcotest.test_case "await_until re-raises" `Quick
            test_await_until_reraises;
        ] );
      ( "flow",
        [
          Alcotest.test_case "jobs=1 equals jobs=4 on all apps" `Slow
            test_flow_determinism;
        ] );
      ( "memo",
        [
          Alcotest.test_case "second evaluate hits" `Quick test_memo_hit;
          Alcotest.test_case "transfer energy restamped" `Quick
            test_memo_restamps_transfer_energy;
          Alcotest.test_case "key sensitivity" `Quick test_memo_key_sensitivity;
          Alcotest.test_case "key bytes pinned" `Quick test_memo_key_pin;
        ] );
    ]
