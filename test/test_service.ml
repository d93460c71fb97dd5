(* In-process exercise of the partitioning service: protocol errors,
   byte-identical run payloads, persistent-cache restart, corruption
   tolerance, and failure containment (mid-run disconnect, overload,
   timeout). Runs a real [Lp_service.Server] on a temporary Unix
   socket with signal handling off. *)

module J = Lp_json
module Protocol = Lp_service.Protocol
module Server = Lp_service.Server
module Client = Lp_service.Client

let fresh_path =
  let ctr = ref 0 in
  fun suffix ->
    incr ctr;
    (* Unix sockets cap sun_path around 107 bytes — stay in the system
       temp dir, not under _build. *)
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "lp-svc-%d-%d%s" (Unix.getpid ()) !ctr suffix)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_server ?cache_dir ?(workers = 2) ?(queue_bound = 64)
    ?(timeout_s = 300.0) f =
  let socket = fresh_path ".sock" in
  let config =
    {
      Server.socket_path = Some socket;
      tcp_port = None;
      workers;
      queue_bound;
      timeout_s;
      cache_dir;
      handle_signals = false;
    }
  in
  let t = Server.start config in
  let thread = Thread.create Server.run t in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      Thread.join thread;
      (* The server process owns the memo globally; give the next test
         (and the rest of the suite) a clean slate. Disk entries are
         deliberately kept — that is what the restart test relies on. *)
      Lp_core.Memo.set_persist_dir None;
      Lp_core.Memo.reset ();
      try Sys.remove socket with Sys_error _ -> ())
    (fun () -> f socket)

let with_client socket f =
  let c = Client.connect (Client.Unix_socket socket) in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let app = (List.hd Lp_apps.Apps.all).Lp_apps.Apps.name

(* What the daemon must answer for a defaults [run] — computed through
   the same Protocol entry points the server uses, then compared as
   bytes on the wire. *)
let direct_run () =
  let e = Option.get (Lp_apps.Apps.find app) in
  let options = Protocol.no_options in
  let program = Protocol.prepare_program options (e.Lp_apps.Apps.build ()) in
  Lp_report.Export.result_json
    (Lp_core.Flow.run
       ~options:(Result.get_ok (Protocol.flow_options options))
       ~name:app program)

let expected_run_payload =
  lazy
    (let s = direct_run () in
     Lp_core.Memo.reset ();
     s)

let run_request = Protocol.Run { app; options = Protocol.no_options; stream = false }

let payload_string = function
  | { Protocol.payload = Ok v; _ } -> J.to_string v
  | { Protocol.payload = Error (code, msg); _ } ->
      Alcotest.failf "unexpected error %s: %s" code msg

let ok_payload what = function
  | { Protocol.payload = Ok v; _ } -> v
  | { Protocol.payload = Error (code, msg); _ } ->
      Alcotest.failf "%s: unexpected error %s: %s" what code msg

let expect_code what code = function
  | { Protocol.payload = Error (c, _); _ } ->
      Alcotest.(check string) what code c
  | { Protocol.payload = Ok v; _ } ->
      Alcotest.failf "%s: expected %s error, got ok: %s" what code
        (J.to_string v)

let stats_int resp path field =
  match resp.Protocol.payload with
  | Ok v ->
      Option.get (J.int_field (Option.get (J.member path v)) field)
  | Error (code, msg) -> Alcotest.failf "stats failed: %s: %s" code msg

(* --- tests -------------------------------------------------------- *)

let test_protocol_errors () =
  with_server (fun socket ->
      with_client socket (fun c ->
          Client.send_line c "this is not json";
          (match Client.recv_line c with
          | None -> Alcotest.fail "no response to malformed line"
          | Some line -> (
              match Protocol.parse_response (J.of_string line) with
              | Ok r -> expect_code "malformed line" "parse" r
              | Error m -> Alcotest.failf "bad envelope: %s" m));
          expect_code "unknown cmd" "unknown_cmd"
            (let resp = Client.rpc_json c (J.of_string "{\"cmd\":\"frobnicate\"}") in
             Result.get_ok (Protocol.parse_response resp));
          expect_code "missing app" "bad_request"
            (Result.get_ok
               (Protocol.parse_response
                  (Client.rpc_json c (J.of_string "{\"cmd\":\"run\"}"))));
          expect_code "options must be an object" "bad_request"
            (Result.get_ok
               (Protocol.parse_response
                  (Client.rpc_json c
                     (J.of_string
                        (Printf.sprintf
                           "{\"cmd\":\"run\",\"app\":%S,\"options\":5}" app)))));
          expect_code "unknown app" "unknown_app"
            (Client.rpc c
               (Protocol.Run
                  { app = "no-such-app"; options = Protocol.no_options; stream = false }));
          (* id echo *)
          let resp =
            Client.rpc c ~id:(J.Int 7) Protocol.List_apps
          in
          Alcotest.(check bool)
            "id echoed" true
            (J.equal resp.Protocol.resp_id (J.Int 7));
          (* list payload names every bundled app *)
          (match resp.Protocol.payload with
          | Ok (J.List entries) ->
              Alcotest.(check int)
                "list length"
                (List.length Lp_apps.Apps.all)
                (List.length entries)
          | _ -> Alcotest.fail "list payload is not an array");
          (* after all those errors the daemon still answers *)
          let stats = Client.rpc c Protocol.Stats in
          Alcotest.(check bool)
            "errors counted" true
            (stats_int stats "requests" "errors" >= 4)))

let test_gen_specs () =
  (* Generated [gen:<class>:<seed>] specs go through the same protocol
     paths as built-in names: a valid spec runs the flow, a malformed
     one comes back as a clean [unknown_app] with the parse error —
     never a crash or a generic failure. *)
  with_server (fun socket ->
      with_client socket (fun c ->
          (match
             (Client.rpc c
                (Protocol.Run
                   { app = "gen:paper:1"; options = Protocol.no_options; stream = false }))
               .Protocol.payload
           with
          | Ok v ->
              Alcotest.(check (option string))
                "result names the spec" (Some "gen:paper:1")
                (J.string_field v "app")
          | Error (code, msg) ->
              Alcotest.failf "gen:paper:1 should run: %s: %s" code msg);
          List.iter
            (fun bad ->
              expect_code (Printf.sprintf "malformed spec %S" bad)
                "unknown_app"
                (Client.rpc c
                   (Protocol.Run { app = bad; options = Protocol.no_options; stream = false })))
            [ "gen:bogus:1"; "gen:paper:"; "gen:paper:12junk"; "gen:paper:-3" ]));
  Lp_core.Memo.reset ()

let test_run_byte_identical () =
  (* Force first: the lazy resets the memo after computing, which must
     not happen between the daemon's two runs below. *)
  let expected = Lazy.force expected_run_payload in
  with_server (fun socket ->
      with_client socket (fun c ->
          let first = payload_string (Client.rpc c run_request) in
          Alcotest.(check string)
            "wire payload equals local Export.result_json" expected first;
          let again = payload_string (Client.rpc c run_request) in
          Alcotest.(check string) "repeat run identical" first again;
          let stats = Client.rpc c Protocol.Stats in
          Alcotest.(check bool)
            "second run served from the memo" true
            (stats_int stats "memo" "hits" > 0);
          Alcotest.(check int)
            "two runs counted" 2
            (stats_int stats "requests" "run")))

let explore_options =
  {
    Protocol.strategy = Some "grid";
    seed = Some 3;
    f_values = Some [ 1.0; 8.0 ];
    n_max_values = None;
    max_cells_values = Some [ 8_000; 16_000 ];
    vdd_values = None;
    platform_values = None;
  }

let explore_request =
  Protocol.Explore
    { app; options = Protocol.no_options; explore = explore_options }

let test_explore_request () =
  (* The daemon's explore payload must be byte-identical to a local
     exploration built through the same Protocol entry points — one
     element of `lowpart explore --json`. *)
  let expected =
    let e = Option.get (Lp_apps.Apps.find app) in
    let base = Result.get_ok (Protocol.flow_options Protocol.no_options) in
    let space = Result.get_ok (Protocol.explore_space ~base explore_options) in
    let r =
      Lp_explore.Explore.run ~seed:3 ~jobs:1 ~base ~space ~name:app
        (e.Lp_apps.Apps.build ())
    in
    Lp_core.Memo.reset ();
    J.to_string (Lp_explore.Explore.to_json r)
  in
  with_server (fun socket ->
      with_client socket (fun c ->
          let got = payload_string (Client.rpc c explore_request) in
          Alcotest.(check string)
            "wire payload equals local exploration" expected got;
          let stats = Client.rpc c Protocol.Stats in
          Alcotest.(check int)
            "explore counted" 1
            (stats_int stats "requests" "explore")));
  (* The request survives its own encode/decode. *)
  (match
     Protocol.parse_request (Protocol.request_to_json explore_request)
   with
  | Ok req ->
      Alcotest.(check bool) "request round-trips" true (req = explore_request)
  | Error (code, msg) -> Alcotest.failf "round-trip failed: %s %s" code msg);
  (* A typo'd strategy or a bad axis is rejected at the protocol edge. *)
  List.iter
    (fun line ->
      match Protocol.parse_request (J.of_string line) with
      | Error ("bad_request", _) -> ()
      | Error (code, _) -> Alcotest.failf "expected bad_request, got %s" code
      | Ok _ -> Alcotest.failf "%s should not parse" line)
    [
      {|{"cmd":"explore","app":"digs","explore":{"strategy":"grad"}}|};
      {|{"cmd":"explore","app":"digs","explore":{"f_values":[]}}|};
      {|{"cmd":"explore","app":"digs","explore":{"f_values":["x"]}}|};
      {|{"cmd":"explore","app":"digs","explore":42}|};
    ]

let test_concurrent_clients () =
  with_server ~workers:2 (fun socket ->
      let expected = Lazy.force expected_run_payload in
      let results = Array.make 4 "" in
      let worker i =
        with_client socket (fun c ->
            results.(i) <- payload_string (Client.rpc c run_request))
      in
      let threads = Array.init 4 (fun i -> Thread.create worker i) in
      Array.iter Thread.join threads;
      Array.iteri
        (fun i got ->
          Alcotest.(check string)
            (Printf.sprintf "client %d payload" i)
            expected got)
        results)

(* The smallest entry of [tag] in a memo directory (the tag ends an
   entry's magic line). A candidate entry must hold a candidate, not a
   cached [None]. *)
let smallest_entry dir tag =
  let holds_value path =
    tag <> "cand"
    ||
    let key =
      Digest.from_hex (Filename.chop_suffix (Filename.basename path) ".entry")
    in
    let d : Lp_core.Candidate.t option Lp_core.Store.disk =
      Lp_core.Store.disk ~tag dir
    in
    Option.is_some (Option.join (Lp_core.Store.load d key))
  in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".entry")
  |> List.map (Filename.concat dir)
  |> List.filter (fun path ->
         let line = In_channel.with_open_bin path In_channel.input_line in
         String.ends_with ~suffix:(" " ^ tag) (Option.value line ~default:"")
         && holds_value path)
  |> List.map (fun path -> ((Unix.stat path).Unix.st_size, path))
  |> List.sort compare
  |> function
  | (_, path) :: _ -> path
  | [] -> Alcotest.failf "no %s entry in %s" tag dir

let test_persistent_cache () =
  let cache = fresh_path ".cache" in
  Fun.protect
    ~finally:(fun () -> rm_rf cache)
    (fun () ->
      let expected = Lazy.force expected_run_payload in
      (* Cold daemon: computes and populates the disk tier. *)
      with_server ~cache_dir:cache (fun socket ->
          with_client socket (fun c ->
              Alcotest.(check string)
                "cold payload" expected
                (payload_string (Client.rpc c run_request));
              let stats = Client.rpc c Protocol.Stats in
              Alcotest.(check bool)
                "entries persisted" true
                (stats_int stats "memo" "disk_entries" > 0)));
      (* Restarted daemon ([with_server] reset the in-memory tier):
         answers from disk, byte-identical. *)
      with_server ~cache_dir:cache (fun socket ->
          with_client socket (fun c ->
              Alcotest.(check string)
                "warm-from-disk payload" expected
                (payload_string (Client.rpc c run_request));
              let stats = Client.rpc c Protocol.Stats in
              Alcotest.(check bool)
                "restart served from the disk tier" true
                (stats_int stats "memo" "disk_hits" > 0)));
      (* Vandalised cache: truncate every entry, add a foreign file.
         The daemon must treat them as misses and recompute. *)
      let dir =
        Filename.concat cache
          (Printf.sprintf "v%d" Lp_core.Memo.format_version)
      in
      Array.iter
        (fun e ->
          let path = Filename.concat dir e in
          let oc = open_out path in
          output_string oc "junk, definitely not a memo entry";
          close_out oc)
        (Sys.readdir dir);
      let oc = open_out (Filename.concat dir "intruder.memo") in
      output_string oc "\x00\x01\x02";
      close_out oc;
      with_server ~cache_dir:cache (fun socket ->
          with_client socket (fun c ->
              Alcotest.(check string)
                "corrupt cache recomputes, same payload" expected
                (payload_string (Client.rpc c run_request));
              let stats = Client.rpc c Protocol.Stats in
              Alcotest.(check int)
                "nothing served from corrupt entries" 0
                (stats_int stats "memo" "disk_hits")));
      (* Fault injection: every bit-flipped byte and every truncation of
         one candidate entry and one initial-report entry costs one
         recomputation — same payload, no exception, entry rewritten. *)
      Fun.protect
        ~finally:(fun () ->
          Lp_core.Memo.set_persist_dir None;
          Lp_core.Memo.reset ())
        (fun () ->
          Lp_core.Memo.set_persist_dir (Some cache);
          List.iter
            (fun tag ->
              Lp_testkit.corrupt_each_byte (smallest_entry dir tag) ~expected
                ~rerun:(fun () ->
                  Lp_core.Memo.reset ();
                  direct_run ()))
            [ "cand"; "init" ]))

let test_disconnect_mid_run () =
  let expected = Lazy.force expected_run_payload in
  with_server (fun socket ->
      (* Fire a run and hang up before the answer. *)
      (let c = Client.connect (Client.Unix_socket socket) in
       Client.send_line c (J.to_string (Protocol.request_to_json run_request));
       Client.close c);
      Thread.delay 0.05;
      (* The daemon must still be serving. *)
      with_client socket (fun c ->
          let resp = Client.rpc c Protocol.Stats in
          Alcotest.(check bool)
            "stats answers after disconnect" true
            (Result.is_ok resp.Protocol.payload);
          Alcotest.(check string)
            "run still works after disconnect" expected
            (payload_string (Client.rpc c run_request))))

let test_overloaded () =
  with_server ~queue_bound:0 (fun socket ->
      with_client socket (fun c ->
          let rejected = Client.rpc c run_request in
          expect_code "bound 0 rejects compute" "overloaded" rejected;
          Alcotest.(check bool)
            "carries a retry_after_ms hint >= 1" true
            (match
               Option.bind rejected.Protocol.resp_error (fun e ->
                   J.int_field e "retry_after_ms")
             with
            | Some ms -> ms >= 1
            | None -> false);
          (* Cheap requests bypass the queue. *)
          let resp = Client.rpc c Protocol.List_apps in
          Alcotest.(check bool)
            "list unaffected" true
            (Result.is_ok resp.Protocol.payload)))

(* An exploration far longer than any deadline in these tests, and
   longer than the timeout's wake-up latency on a loaded host. *)
let big_explore =
  Protocol.Explore
    {
      app;
      options = Protocol.no_options;
      explore =
        {
          Protocol.strategy = Some "anneal:20000:4";
          seed = Some 1;
          f_values = Some [ 0.5; 16.0 ];
          n_max_values = None;
          max_cells_values = Some [ 8_000; 16_000; 24_000 ];
          vdd_values = Some [ 2.0; 3.3 ];
          platform_values = None;
        };
    }

(* The deadline wake-up has 200 ms granularity and a result that
   resolves first is still delivered, so the request must be one that
   cannot finish within that latency; a cold [run] of a paper app may. *)
let test_timeout () =
  with_server ~workers:1 ~timeout_s:0.001 (fun socket ->
      with_client socket (fun c ->
          expect_code "deadline exceeded" "timeout" (Client.rpc c big_explore)))

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* The exception → error-envelope mapping: cancellation and failed
   verification are distinguishable from a generic failure, and a flow
   cancellation names the stage it stopped at. *)
let test_error_codes () =
  let code e = fst (Lp_service.Engine.error_of_exn ~cmd:"run" e) in
  Alcotest.(check string) "flow cancellation" "cancelled"
    (code (Lp_core.Flow.Cancelled "candidates"));
  Alcotest.(check string) "token cancellation" "cancelled"
    (code Lp_parallel.Cancel.Cancelled);
  Alcotest.(check string) "verification" "verification_failed"
    (code (Lp_core.Flow.Verification_failed "outputs diverge"));
  Alcotest.(check string) "everything else" "failed" (code (Failure "boom"));
  let _, msg =
    Lp_service.Engine.error_of_exn ~cmd:"run"
      (Lp_core.Flow.Cancelled "candidates")
  in
  Alcotest.(check bool) "active stage echoed" true
    (contains ~sub:"candidates" msg)

(* stats carries the accumulated per-pipeline-stage wall seconds of the
   run requests it served. *)
let test_stats_stages () =
  with_server (fun socket ->
      with_client socket (fun c ->
          let _ = payload_string (Client.rpc c run_request) in
          let stats = Client.rpc c Protocol.Stats in
          match stats.Protocol.payload with
          | Error (code, msg) -> Alcotest.failf "stats failed: %s: %s" code msg
          | Ok v ->
              let stages =
                match J.member "stages" v with
                | Some s -> s
                | None -> Alcotest.fail "stats payload lacks stages"
              in
              let total =
                List.fold_left
                  (fun acc st ->
                    match
                      Option.bind
                        (J.member (Lp_core.Flow.stage_name st) stages)
                        J.to_float_opt
                    with
                    | Some dt ->
                        Alcotest.(check bool)
                          (Lp_core.Flow.stage_name st ^ " >= 0")
                          true (dt >= 0.0);
                        acc +. dt
                    | None ->
                        Alcotest.failf "stats stages misses %S"
                          (Lp_core.Flow.stage_name st))
                  0.0 Lp_core.Flow.all_stages
              in
              Alcotest.(check bool)
                "stage time accumulated over the run" true (total > 0.0)))

(* The deadline token actually frees the single worker: a huge explore
   blows the 2 s deadline and gets the timeout envelope; the follow-up
   run on the same (sole) worker must then complete promptly instead of
   queueing behind the rest of the exploration (which would take far
   longer than the assertion bound to finish uncancelled). *)
let test_timeout_frees_worker () =
  with_server ~workers:1 ~timeout_s:2.0 (fun socket ->
      with_client socket (fun c ->
          (* warm the memo so the follow-up run is cheap *)
          let warm = payload_string (Client.rpc c run_request) in
          expect_code "huge exploration times out" "timeout"
            (Client.rpc c big_explore);
          let t0 = Unix.gettimeofday () in
          let again = payload_string (Client.rpc c run_request) in
          let elapsed = Unix.gettimeofday () -. t0 in
          Alcotest.(check string) "follow-up run answered correctly" warm again;
          Alcotest.(check bool)
            (Printf.sprintf "worker freed (follow-up took %.2f s)" elapsed)
            true (elapsed < 10.0)))

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
  with_server (fun socket ->
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
          (* Events follow the flow's execution order: the nine
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
          Alcotest.(check (option int))
            "response id echoes the request id" (Some 7)
            (J.to_int_opt resp.Protocol.resp_id);
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
              let prev =
                Option.value (Hashtbl.find_opt samples stage) ~default:[]
              in
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

(* Schema lock for the scrape surface: the [metrics] payload's keys in
   order, the fields of each nested block, and one counted run. *)
let test_metrics_schema () =
  with_server (fun socket ->
      with_client socket (fun c ->
          ignore (ok_payload "run" (Client.rpc c run_request));
          let v = ok_payload "metrics" (Client.rpc c Protocol.Metrics) in
          let obj name o =
            match J.member name o with
            | Some (J.Assoc _ as a) -> a
            | _ -> Alcotest.failf "metrics: missing object %s" name
          in
          let has name o =
            if J.member name o = None then
              Alcotest.failf "metrics: missing field %s" name
          in
          Alcotest.(check (list string))
            "top-level keys"
            [
              "schema"; "pid"; "uptime_s"; "workers"; "outcomes"; "queue";
              "latency_ms"; "stage_seconds"; "memo";
            ]
            (match v with
            | J.Assoc fields -> List.map fst fields
            | _ -> Alcotest.fail "metrics payload is not an object");
          Alcotest.(check (option string))
            "schema" (Some "lowpart-metrics/1") (J.string_field v "schema");
          Alcotest.(check (option int))
            "pid" (Some (Unix.getpid ())) (J.int_field v "pid");
          Alcotest.(check (option int)) "workers" (Some 2) (J.int_field v "workers");
          List.iter
            (fun n -> has n (obj "queue" v))
            [ "depth"; "high_water"; "bound" ];
          List.iter
            (fun n -> has n (obj "latency_ms" v))
            [
              "buckets_ms"; "counts"; "count"; "sum_ms"; "max_ms"; "p50_ms";
              "p95_ms"; "p99_ms";
            ];
          List.iter
            (fun n -> has n (obj "memo" v))
            [ "hits"; "misses"; "hit_rate"; "disk_hits"; "disk_entries" ];
          List.iter
            (fun st -> has (Lp_core.Flow.stage_name st) (obj "stage_seconds" v))
            Lp_core.Flow.all_stages;
          let ok =
            Option.value ~default:0 (J.int_field (obj "outcomes" v) "ok")
          in
          if ok < 1 then Alcotest.failf "outcomes lost the run (ok=%d)" ok))

(* A client that never sends a newline gets one [bad_request] once its
   line passes the daemon's bound and is then disconnected; the daemon
   keeps serving new connections. *)
let test_line_bound () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  with_server (fun socket ->
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX socket);
          let chunk = Bytes.make 65536 'x' in
          let rec write off =
            if off < Bytes.length chunk then
              write (off + Unix.write fd chunk off (Bytes.length chunk - off))
          in
          (* 2 MiB without a newline; the daemon hangs up part-way. *)
          (try
             for _ = 1 to 32 do
               write 0
             done
           with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
          let buf = Buffer.create 256 and bytes = Bytes.create 4096 in
          let deadline = Unix.gettimeofday () +. 10.0 in
          let rec read_line () =
            match String.index_opt (Buffer.contents buf) '\n' with
            | Some i -> Some (String.sub (Buffer.contents buf) 0 i)
            | None -> (
                let left = deadline -. Unix.gettimeofday () in
                if left <= 0.0 then None
                else
                  match Unix.select [ fd ] [] [] left with
                  | [], _, _ -> None
                  | _ -> (
                      match Unix.read fd bytes 0 (Bytes.length bytes) with
                      | 0 -> None
                      | n ->
                          Buffer.add_subbytes buf bytes 0 n;
                          read_line ()))
          in
          match read_line () with
          | None -> Alcotest.fail "no answer to an unbounded request line"
          | Some line -> (
              match Protocol.parse_response (Result.get_ok (J.parse line)) with
              | Ok resp -> expect_code "overlong line" "bad_request" resp
              | Error msg -> Alcotest.failf "not a response: %s" msg));
      with_client socket (fun c ->
          Alcotest.(check bool)
            "list answers on a new connection" true
            (Result.is_ok (Client.rpc c Protocol.List_apps).Protocol.payload)))

let test_shutdown_request () =
  let socket = fresh_path ".sock" in
  let config =
    {
      Server.default_config with
      Server.socket_path = Some socket;
      cache_dir = None;
      handle_signals = false;
    }
  in
  let t = Server.start config in
  let thread = Thread.create Server.run t in
  with_client socket (fun c ->
      let resp = Client.rpc c Protocol.Shutdown in
      match resp.Protocol.payload with
      | Ok v ->
          Alcotest.(check (option bool))
            "acknowledges stop" (Some true) (J.bool_field v "stopping")
      | Error (code, msg) -> Alcotest.failf "shutdown failed: %s: %s" code msg);
  (* run returns on its own — no [stop] from us. *)
  Thread.join thread;
  Lp_core.Memo.reset ();
  Alcotest.(check bool)
    "socket unlinked at teardown" false (Sys.file_exists socket)

(* --- platform options: precedence, conflicts, wire stability ------- *)

module Platform = Lp_tech.Platform
module System = Lp_system.System

let string_contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl
    && (String.equal (String.sub haystack i nl) needle || go (i + 1))
  in
  go 0

let test_platform_options () =
  (* A named platform supplies the whole base config. *)
  (match
     Protocol.flow_options
       { Protocol.no_options with Protocol.platform = Some "tiny" }
   with
  | Ok opts ->
      let config = opts.Lp_core.Flow.config in
      Alcotest.(check bool) "config carries the tiny platform" true
        (Platform.equal config.System.platform Platform.tiny);
      Alcotest.(check int) "tiny icache geometry applied" 512
        config.System.icache.Lp_cache.Cache.size_bytes
  | Error msg -> Alcotest.failf "plain platform rejected: %s" msg);
  (* Precedence: a raw field beats the named platform's value — the
     rest of the platform still applies. *)
  (match
     Protocol.flow_options
       {
         Protocol.no_options with
         Protocol.platform = Some "tiny";
         icache_bytes = Some 4096;
       }
   with
  | Ok opts ->
      let config = opts.Lp_core.Flow.config in
      Alcotest.(check int) "raw icache override wins" 4096
        config.System.icache.Lp_cache.Cache.size_bytes;
      Alcotest.(check int) "tiny dcache geometry kept" 512
        config.System.dcache.Lp_cache.Cache.size_bytes;
      Alcotest.(check bool) "tiny clock/Vdd kept" true
        (config.System.platform.Platform.core_vdd_v
         = Platform.tiny.Platform.core_vdd_v)
  | Error msg -> Alcotest.failf "raw-over-platform rejected: %s" msg);
  (* A platform spec override and a raw field for the same knob is
     ambiguous — rejected, with both channels named. *)
  (match
     Protocol.flow_options
       {
         Protocol.no_options with
         Protocol.platform = Some "tiny:icache=1024/16/1";
         icache_bytes = Some 4096;
       }
   with
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "conflict message names both channels: %s" msg)
        true
        (string_contains msg "icache" && string_contains msg "icache_bytes")
  | Ok _ -> Alcotest.fail "conflicting overrides accepted");
  (* Unknown platforms error with the registry listing. *)
  match
    Protocol.flow_options
      { Protocol.no_options with Protocol.platform = Some "bogus" }
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown platform accepted"

let test_platform_wire () =
  (* Absent platform emits no field: requests without one are
     byte-identical to pre-platform requests. *)
  let json = Protocol.request_to_json run_request in
  Alcotest.(check bool) "no platform key when absent" true
    (match json with
    | J.Assoc fields -> (
        match List.assoc_opt "options" fields with
        | Some (J.Assoc opts) -> not (List.mem_assoc "platform" opts)
        | Some J.Null | None -> true
        | Some _ -> false)
    | _ -> false);
  (* Present platform (and platform_values) round-trip. *)
  let req =
    Protocol.Explore
      {
        app;
        options =
          { Protocol.no_options with Protocol.platform = Some "tiny" };
        explore =
          {
            Protocol.no_explore_options with
            Protocol.platform_values = Some [ "sparclite"; "tiny" ];
          };
      }
  in
  (match Protocol.parse_request (Protocol.request_to_json req) with
  | Ok got ->
      Alcotest.(check bool) "platform fields round-trip" true (got = req)
  | Error (code, msg) -> Alcotest.failf "round-trip failed: %s %s" code msg);
  (* The daemon answers bad_request for an unknown platform and for
     conflicting overrides — readable envelopes, not dead workers. *)
  with_server (fun socket ->
      with_client socket (fun c ->
          expect_code "unknown platform" "bad_request"
            (Client.rpc c
               (Protocol.Run
                  {
                    app;
                    options =
                      {
                        Protocol.no_options with
                        Protocol.platform = Some "bogus";
                      };
                    stream = false;
                  }));
          expect_code "conflicting overrides" "bad_request"
            (Client.rpc c
               (Protocol.Simulate
                  {
                    app;
                    options =
                      {
                        Protocol.no_options with
                        Protocol.platform = Some "tiny:dcache=1024/16/2";
                        dcache_bytes = Some 4096;
                      };
                  }));
          expect_code "bad platform axis" "bad_request"
            (Client.rpc c
               (Protocol.Explore
                  {
                    app;
                    options = Protocol.no_options;
                    explore =
                      {
                        Protocol.no_explore_options with
                        Protocol.platform_values = Some [ "tiny"; "bogus" ];
                      };
                  }));
          (* The worker is still alive and answering. *)
          let resp = Client.rpc c Protocol.List_apps in
          match resp.Protocol.payload with
          | Ok _ -> ()
          | Error (code, msg) ->
              Alcotest.failf "daemon dead after bad_request: %s %s" code msg))

let () =
  Alcotest.run "service"
    [
      ( "protocol",
        [
          Alcotest.test_case "error envelopes" `Quick test_protocol_errors;
          Alcotest.test_case "shutdown request" `Quick test_shutdown_request;
          Alcotest.test_case "request line bound" `Quick test_line_bound;
          Alcotest.test_case "metrics schema" `Quick test_metrics_schema;
          Alcotest.test_case "platform precedence" `Quick
            test_platform_options;
          Alcotest.test_case "platform on the wire" `Quick
            test_platform_wire;
        ] );
      ( "compute",
        [
          Alcotest.test_case "run byte-identical" `Quick
            test_run_byte_identical;
          Alcotest.test_case "generated specs over the wire" `Quick
            test_gen_specs;
          Alcotest.test_case "explore request" `Quick test_explore_request;
          Alcotest.test_case "concurrent clients" `Quick
            test_concurrent_clients;
          Alcotest.test_case "overloaded" `Quick test_overloaded;
          Alcotest.test_case "timeout" `Quick test_timeout;
          Alcotest.test_case "error codes" `Quick test_error_codes;
          Alcotest.test_case "stats stages" `Quick test_stats_stages;
          Alcotest.test_case "streamed stage events" `Quick test_streaming;
          Alcotest.test_case "timeout frees the worker" `Quick
            test_timeout_frees_worker;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "persistent cache" `Quick test_persistent_cache;
          Alcotest.test_case "mid-run disconnect" `Quick
            test_disconnect_mid_run;
        ] );
    ]
