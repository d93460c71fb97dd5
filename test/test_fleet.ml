(* Fleet mode: consistent-hash ring laws (qcheck), end-to-end router +
   worker-process exercise on a temporary Unix socket — byte-identical
   run payloads through the id-rewriting pipe plumbing, streamed stage
   events against the result's own stage times, merged stats shape
   against the single-process daemon's, the metrics schema lock, and
   crash robustness (worker SIGKILLed mid-request -> shard_lost ->
   respawn) plus router-level backpressure. *)

module J = Lp_json
module Protocol = Lp_service.Protocol
module Fleet = Lp_service.Fleet
module Server = Lp_service.Server
module Client = Lp_service.Client
module Ring = Lp_service.Ring

let fresh_path =
  let ctr = ref 0 in
  fun suffix ->
    incr ctr;
    (* Unix sockets cap sun_path around 107 bytes — stay in the system
       temp dir, not under _build. *)
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "lp-fleet-%d-%d%s" (Unix.getpid ()) !ctr suffix)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* --- ring laws ----------------------------------------------------- *)

(* Corpus-shaped keys: what the router actually hashes (the program
   fingerprint preimage of generated workloads). *)
let corpus_keys =
  List.concat_map
    (fun cls ->
      List.init 500 (fun seed ->
          Printf.sprintf "gen:%s:%d|optimize=%b|unroll=%d" cls seed
            (seed mod 2 = 0)
            (1 + (seed mod 3))))
    [ "paper"; "wide"; "deep"; "large" ]

let test_ring_balance () =
  List.iter
    (fun shards ->
      let ring = Ring.create ~shards () in
      let counts = Array.make shards 0 in
      List.iter
        (fun k ->
          let s = Ring.shard_of ring k in
          counts.(s) <- counts.(s) + 1)
        corpus_keys;
      let ideal = float_of_int (List.length corpus_keys) /. float_of_int shards in
      Array.iteri
        (fun i c ->
          if float_of_int c > 2.0 *. ideal then
            Alcotest.failf
              "%d shards: shard %d owns %d of %d keys (> 2x ideal %.0f)"
              shards i c (List.length corpus_keys) ideal)
        counts)
    [ 2; 3; 4; 8 ]

let test_ring_remap () =
  (* Adding one shard to N must remap roughly 1/(N+1) of the keys (the
     point of consistent hashing); allow 2x slack over the ideal. *)
  List.iter
    (fun n ->
      let before = Ring.create ~shards:n () in
      let after = Ring.create ~shards:(n + 1) () in
      let moved =
        List.length
          (List.filter
             (fun k -> Ring.shard_of before k <> Ring.shard_of after k)
             corpus_keys)
      in
      let ideal =
        float_of_int (List.length corpus_keys) /. float_of_int (n + 1)
      in
      if float_of_int moved > 2.0 *. ideal then
        Alcotest.failf "%d -> %d shards moved %d keys (> 2x ideal %.0f)" n
          (n + 1) moved ideal)
    [ 1; 2; 4 ]

let test_ring_golden () =
  (* Cross-process determinism lock: the ring must hash identically in
     every process (the router routes; workers and future routers must
     agree after restarts). Pinned values — if a hash change is
     intentional, update them knowingly: shard placement of every
     cached workload moves. *)
  let ring4 = Ring.create ~shards:4 () in
  List.iter
    (fun (key, expect) ->
      Alcotest.(check int)
        (Printf.sprintf "shard_of %S" key)
        expect (Ring.shard_of ring4 key))
    [
      ("digs|optimize=false|unroll=1", 2);
      ("3d|optimize=false|unroll=1", 2);
      ("mpg|optimize=true|unroll=2", 1);
      ("gen:paper:1|optimize=false|unroll=1", 0);
      ("gen:large:7|optimize=true|unroll=4", 0);
    ]

let qcheck_tests =
  let open QCheck in
  let key = string_of_size (Gen.int_range 1 40) in
  [
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"ring: in range and deterministic" ~count:500
         (pair key (int_range 1 8))
         (fun (k, shards) ->
           let a = Ring.create ~shards () in
           let b = Ring.create ~shards () in
           let s = Ring.shard_of a k in
           s >= 0 && s < shards && s = Ring.shard_of b k));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"ring: adding a shard only moves keys to it"
         ~count:500
         (pair key (int_range 1 8))
         (fun (k, n) ->
           let before = Ring.shard_of (Ring.create ~shards:n ()) k in
           let after = Ring.shard_of (Ring.create ~shards:(n + 1) ()) k in
           after = before || after = n));
  ]

(* --- fleet end-to-end ---------------------------------------------- *)

let with_fleet ?(shards = 2) ?(queue_bound = 64) ?(timeout_s = 60.0)
    ?cache_dir f =
  let socket = fresh_path ".sock" in
  let config =
    {
      Fleet.socket_path = Some socket;
      tcp_port = None;
      shards;
      workers = 1;
      queue_bound;
      timeout_s;
      cache_dir;
      handle_signals = false;
    }
  in
  let t = Fleet.start config in
  let thread = Thread.create Fleet.run t in
  Fun.protect
    ~finally:(fun () ->
      Fleet.stop t;
      Thread.join thread;
      try Sys.remove socket with Sys_error _ -> ())
    (fun () -> f socket)

let with_client socket f =
  let c = Client.connect (Client.Unix_socket socket) in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let ok_payload what = function
  | { Protocol.payload = Ok v; _ } -> v
  | { Protocol.payload = Error (code, msg); _ } ->
      Alcotest.failf "%s: unexpected error %s: %s" what code msg

(* Workers come up asynchronously under their supervisors: wait until
   the router reports every shard alive before tests that depend on
   dispatch succeeding immediately. *)
let wait_alive socket =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let all_alive () =
    with_client socket (fun c ->
        match (Client.rpc c Protocol.Metrics).Protocol.payload with
        | Ok v -> (
            match J.member "fleet" v with
            | Some f -> (
                match J.member "router" f with
                | Some (J.List rows) ->
                    rows <> []
                    && List.for_all
                         (fun r -> J.bool_field r "alive" = Some true)
                         rows
                | _ -> false)
            | None -> false)
        | Error _ -> false)
  in
  let rec go () =
    if all_alive () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail "fleet did not come up within 10 s"
    else begin
      Thread.delay 0.05;
      go ()
    end
  in
  go ()

let app = (List.hd Lp_apps.Apps.all).Lp_apps.Apps.name

let expected_run_payload =
  lazy
    (let e = Option.get (Lp_apps.Apps.find app) in
     let options = Protocol.no_options in
     let program = Protocol.prepare_program options (e.Lp_apps.Apps.build ()) in
     let r =
       Lp_core.Flow.run
         ~options:(Result.get_ok (Protocol.flow_options options))
         ~name:app
         program
     in
     let s = Lp_report.Export.result_json r in
     Lp_core.Memo.reset ();
     s)

let run_request = Protocol.Run { app; options = Protocol.no_options; stream = false }

(* The run payload must cross the router->worker pipe, the id rewrite
   and the response path byte-identically to `lowpart run --json`. *)
let test_run_payload () =
  with_fleet (fun socket ->
      wait_alive socket;
      with_client socket (fun c ->
          let v =
            ok_payload "fleet run"
              (Client.rpc c ~id:(J.String "r1") run_request)
          in
          Alcotest.(check string)
            "payload bytes"
            (Lazy.force expected_run_payload)
            (J.to_string v)))

(* Half a unit in the last place of [x] printed with %.6g: the most
   that printing moved the value it stands for. *)
let half_ulp_6g x =
  if x = 0.0 then 0.0
  else 0.5 *. (10.0 ** (Float.floor (Float.log10 (Float.abs x)) -. 5.0))

(* Streamed stage events: in order, seq from 0, and each stage's
   streamed samples agree with the streamed payload's own "stages"
   object: byte-for-byte for a stage streamed once, and within the
   rounding of the printed summands for verify, which runs twice (the
   payload prints the sum of the two clock samples, the events print
   each sample). *)
let test_streaming () =
  with_fleet (fun socket ->
      wait_alive socket;
      with_client socket (fun c ->
          let events = ref [] in
          let resp =
            Client.rpc_stream c ~id:(J.Int 7)
              ~on_event:(fun ev -> events := ev :: !events)
              (Protocol.Run
                 { app; options = Protocol.no_options; stream = true })
          in
          let events = List.rev !events in
          if events = [] then Alcotest.fail "no streamed events";
          List.iteri
            (fun i ev ->
              Alcotest.(check (option int))
                "event id echoes the request id" (Some 7)
                (J.int_field ev "id");
              Alcotest.(check (option string))
                "event kind" (Some "stage")
                (J.string_field ev "event");
              Alcotest.(check (option int)) "seq" (Some i) (J.int_field ev "seq"))
            events;
          (* Events must follow the flow's execution order: the nine
             pipeline stages with verify billing once after each of
             the two system simulations (ten events total). *)
          Alcotest.(check (list string))
            "stage execution order"
            [
              "profile"; "cluster"; "preselect"; "simulate_initial";
              "verify"; "candidates"; "select"; "cores";
              "simulate_partitioned"; "verify";
            ]
            (List.map
               (fun ev -> Option.get (J.string_field ev "stage"))
               events);
          (* Per-stage event samples (arrival order) against the
             payload's stages object: same clock samples, same %.6g
             printing. *)
          let payload = ok_payload "streamed run" resp in
          let stages =
            match J.member "stages" payload with
            | Some (J.Assoc fields) -> fields
            | _ -> Alcotest.fail "streamed run payload carries no stages"
          in
          let samples : (string, float list) Hashtbl.t = Hashtbl.create 16 in
          List.iter
            (fun ev ->
              let stage = Option.get (J.string_field ev "stage") in
              let s = Option.get (J.float_field ev "s") in
              let prev = Option.value (Hashtbl.find_opt samples stage) ~default:[] in
              Hashtbl.replace samples stage (prev @ [ s ]))
            events;
          Alcotest.(check int)
            "every stage streamed" (List.length stages)
            (Hashtbl.length samples);
          List.iter
            (fun (stage, v) ->
              let label = Printf.sprintf "stage %s seconds" stage in
              match Hashtbl.find_opt samples stage with
              | None -> Alcotest.failf "stage %s never streamed" stage
              | Some [ s ] ->
                  Alcotest.(check string) label (J.to_string v)
                    (J.to_string (J.Float s))
              | Some ss ->
                  let total = Option.get (J.to_float_opt v) in
                  let sum = List.fold_left ( +. ) 0.0 ss in
                  let bound =
                    List.fold_left
                      (fun b x -> b +. half_ulp_6g x)
                      (half_ulp_6g total) ss
                  in
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: %s vs %s within %g" label
                       (J.to_string v)
                       (J.to_string (J.Float sum))
                       bound)
                    true
                    (Float.abs (total -. sum) <= bound *. (1.0 +. 1e-9)))
            stages;
          (* A non-streamed run on the same connection keeps the
             stage-free payload contract. *)
          let v = ok_payload "plain run" (Client.rpc c run_request) in
          Alcotest.(check bool)
            "plain run carries no stages" true
            (J.member "stages" v = None)))

(* The key skeleton of a payload: object nesting and field order with
   every leaf erased — two payloads with equal shapes carry the same
   keys in the same places. *)
let rec shape = function
  | J.Assoc fields -> J.Assoc (List.map (fun (k, v) -> (k, shape v)) fields)
  | _ -> J.Null

(* Fleet [stats] must keep the single daemon's envelope shape: same
   keys in the same nesting, counters summed across shards. *)
let test_stats_merged () =
  let single_stats =
    let socket = fresh_path ".sock" in
    let t =
      Server.start
        {
          Server.socket_path = Some socket;
          tcp_port = None;
          workers = 1;
          queue_bound = 64;
          timeout_s = 60.0;
          cache_dir = None;
          handle_signals = false;
        }
    in
    let thread = Thread.create Server.run t in
    Fun.protect
      ~finally:(fun () ->
        Server.stop t;
        Thread.join thread;
        Lp_core.Memo.set_persist_dir None;
        Lp_core.Memo.reset ();
        try Sys.remove socket with Sys_error _ -> ())
      (fun () ->
        with_client socket (fun c ->
            ignore (ok_payload "single run" (Client.rpc c run_request));
            ok_payload "single stats" (Client.rpc c Protocol.Stats)))
  in
  with_fleet (fun socket ->
      wait_alive socket;
      with_client socket (fun c ->
          ignore (ok_payload "fleet run" (Client.rpc c run_request));
          ignore (ok_payload "fleet run" (Client.rpc c run_request));
          let v = ok_payload "fleet stats" (Client.rpc c Protocol.Stats) in
          Alcotest.(check string)
            "merged stats has the single daemon's shape"
            (J.to_string (shape single_stats))
            (J.to_string (shape v));
          let field obj name =
            Option.get (J.int_field (Option.get (J.member obj v)) name)
          in
          Alcotest.(check int) "runs counted across shards" 2
            (field "requests" "run");
          (* 2 shards x 1 worker *)
          Alcotest.(check (option int))
            "workers summed" (Some 2) (J.int_field v "workers")))

(* Schema lock for the scrape surface. *)
let test_metrics_schema () =
  with_fleet (fun socket ->
      wait_alive socket;
      with_client socket (fun c ->
          ignore (ok_payload "run" (Client.rpc c run_request));
          let v = ok_payload "metrics" (Client.rpc c Protocol.Metrics) in
          let str name obj =
            match J.string_field obj name with
            | Some s -> s
            | None -> Alcotest.failf "metrics: missing string %s" name
          in
          let obj name o =
            match J.member name o with
            | Some (J.Assoc _ as a) -> a
            | _ -> Alcotest.failf "metrics: missing object %s" name
          in
          let arr name o =
            match J.member name o with
            | Some (J.List l) -> l
            | _ -> Alcotest.failf "metrics: missing array %s" name
          in
          let has name o =
            if J.member name o = None then
              Alcotest.failf "metrics: missing field %s" name
          in
          Alcotest.(check string)
            "schema" "lowpart-metrics/1" (str "schema" v);
          let fleet = obj "fleet" v in
          List.iter (fun n -> has n fleet) [ "shards"; "uptime_s"; "connections" ];
          let router = arr "router" fleet in
          Alcotest.(check int) "router row per shard" 2 (List.length router);
          List.iter
            (fun row ->
              List.iter
                (fun n -> has n row)
                [
                  "shard"; "pid"; "alive"; "in_flight"; "high_water";
                  "queue_bound"; "dispatched"; "shard_lost"; "respawns";
                  "batches"; "batched_lines"; "ewma_ms";
                ])
            router;
          let shards = arr "shards" v in
          Alcotest.(check int) "worker payload per shard" 2 (List.length shards);
          List.iter
            (fun w ->
              Alcotest.(check string)
                "worker schema" "lowpart-metrics/1" (str "schema" w);
              List.iter
                (fun n -> has n w)
                [ "shard"; "pid"; "uptime_s"; "workers"; "stage_seconds" ];
              List.iter
                (fun n -> has n (obj "queue" w))
                [ "depth"; "high_water"; "bound" ];
              List.iter
                (fun n -> has n (obj "latency_ms" w))
                [
                  "buckets_ms"; "counts"; "count"; "sum_ms"; "max_ms";
                  "p50_ms"; "p95_ms"; "p99_ms";
                ];
              List.iter
                (fun n -> has n (obj "memo" w))
                [ "hits"; "misses"; "hit_rate"; "disk_hits"; "disk_entries" ];
              has "ok" (obj "outcomes" w))
            shards;
          let totals = obj "totals" v in
          List.iter
            (fun n -> has n totals)
            [ "outcomes"; "latency_ms"; "stage_seconds"; "memo" ];
          (* One run happened somewhere: merged outcomes count it. *)
          let ok_total =
            Option.value ~default:0
              (J.int_field (obj "outcomes" totals) "ok")
          in
          if ok_total < 1 then
            Alcotest.failf "merged outcomes lost the run (ok=%d)" ok_total))

let shard0_pid socket =
  with_client socket (fun c ->
      let v = ok_payload "metrics" (Client.rpc c Protocol.Metrics) in
      match J.member "fleet" v with
      | Some f -> (
          match J.member "router" f with
          | Some (J.List (row :: _)) -> Option.get (J.int_field row "pid")
          | _ -> Alcotest.fail "no router rows")
      | None -> Alcotest.fail "no fleet block")

let shard0_counter socket name =
  with_client socket (fun c ->
      let v = ok_payload "metrics" (Client.rpc c Protocol.Metrics) in
      match J.member "fleet" v with
      | Some f -> (
          match J.member "router" f with
          | Some (J.List (row :: _)) -> Option.get (J.int_field row name)
          | _ -> Alcotest.fail "no router rows")
      | None -> Alcotest.fail "no fleet block")

(* Kill the worker mid-request: the in-flight request fails with the
   distinct shard_lost code (naming the shard), the shard respawns,
   and the next request succeeds. *)
let test_shard_lost_and_respawn () =
  let cache = fresh_path ".cache" in
  with_fleet ~shards:1 ~cache_dir:cache (fun socket ->
      wait_alive socket;
      let pid = shard0_pid socket in
      with_client socket (fun c ->
          (* A long exploration keeps the worker busy while we shoot it. *)
          Client.send_line c
            (J.to_string
               (Protocol.request_to_json ~id:(J.String "boom")
                  (Protocol.Explore
                     {
                       app;
                       options = Protocol.no_options;
                       explore =
                         {
                           Protocol.no_explore_options with
                           Protocol.strategy = Some "anneal:200000:4";
                         };
                     })));
          Thread.delay 0.4;
          Unix.kill pid Sys.sigkill;
          (match Client.recv_line c with
          | None -> Alcotest.fail "connection died instead of shard_lost"
          | Some line -> (
              let resp =
                Result.get_ok (Protocol.parse_response (J.of_string line))
              in
              match resp.Protocol.payload with
              | Error ("shard_lost", _) ->
                  let err = Option.get resp.Protocol.resp_error in
                  Alcotest.(check (option int))
                    "error names the shard" (Some 0) (J.int_field err "shard")
              | Error (code, msg) ->
                  Alcotest.failf "expected shard_lost, got %s: %s" code msg
              | Ok _ -> Alcotest.fail "explore survived SIGKILL?"));
          (* The supervisor respawns the shard; the service recovers. *)
          wait_alive socket;
          ignore (ok_payload "run after respawn" (Client.rpc c run_request)));
      let respawns = shard0_counter socket "respawns" in
      if respawns < 1 then
        Alcotest.failf "respawns counter stuck at %d" respawns);
  rm_rf cache

(* Router-level backpressure: past the per-shard in-flight bound the
   router (not the worker) answers overloaded, with a retry hint and
   the chosen shard in the error object. *)
let test_overloaded_backpressure () =
  with_fleet ~shards:1 ~queue_bound:1 ~timeout_s:2.0 (fun socket ->
      wait_alive socket;
      with_client socket (fun c1 ->
          Client.send_line c1
            (J.to_string
               (Protocol.request_to_json ~id:(J.Int 1)
                  (Protocol.Explore
                     {
                       app;
                       options = Protocol.no_options;
                       explore =
                         {
                           Protocol.no_explore_options with
                           Protocol.strategy = Some "anneal:200000:4";
                         };
                     })));
          Thread.delay 0.2;
          with_client socket (fun c2 ->
              let resp = Client.rpc c2 run_request in
              match resp.Protocol.payload with
              | Error ("overloaded", _) ->
                  let err = Option.get resp.Protocol.resp_error in
                  if J.int_field err "retry_after_ms" = None then
                    Alcotest.fail "overloaded without retry_after_ms";
                  Alcotest.(check (option int))
                    "overloaded names the shard" (Some 0)
                    (J.int_field err "shard")
              | Error (code, msg) ->
                  Alcotest.failf "expected overloaded, got %s: %s" code msg
              | Ok _ -> Alcotest.fail "second request was admitted past the bound")))

let () =
  (* Fleet workers are re-execs of this test binary. *)
  Fleet.maybe_exec_worker ();
  Alcotest.run "fleet"
    [
      ( "ring",
        [
          Alcotest.test_case "balance within 2x of ideal" `Quick
            test_ring_balance;
          Alcotest.test_case "adding a shard remaps ~1/N" `Quick
            test_ring_remap;
          Alcotest.test_case "golden placements (cross-process)" `Quick
            test_ring_golden;
        ]
        @ qcheck_tests );
      ( "fleet",
        [
          Alcotest.test_case "run payload byte-identical" `Quick
            test_run_payload;
          Alcotest.test_case "streamed stage events" `Quick test_streaming;
          Alcotest.test_case "merged stats shape" `Quick test_stats_merged;
          Alcotest.test_case "metrics schema" `Quick test_metrics_schema;
          Alcotest.test_case "shard_lost and respawn" `Quick
            test_shard_lost_and_respawn;
          Alcotest.test_case "overloaded backpressure" `Quick
            test_overloaded_backpressure;
        ] );
    ]
