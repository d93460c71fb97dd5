(* lib/trace: the qcheck balance/nesting law for spans (including
   raising spans and concurrent domains), disabled-mode inertness,
   [timed_span] clock agreement, JSON-line escaping, and the flow
   integration the CLI's [--trace] relies on: a traced [Flow.run]'s
   per-stage span totals equal [Flow.result.stage_times] and the
   [~stages:true] JSON export. *)

module T = Lp_trace
module J = Lp_json
module Flow = Lp_core.Flow
module Memo = Lp_core.Memo
module Apps = Lp_apps.Apps

(* --- helpers ------------------------------------------------------ *)

let with_memory_sink f =
  let sink, events = T.memory_sink () in
  T.set_sink (Some sink);
  let v = Fun.protect ~finally:(fun () -> T.set_sink None) f in
  (v, events ())

(* Per-domain stack replay of an event stream. Returns [None] when the
   stream violates balance or LIFO nesting; otherwise [Some totals],
   the per-name sum of (End.ts - Begin.ts) over all matched pairs. *)
let replay events =
  let stacks = Hashtbl.create 8 in
  let totals = Hashtbl.create 16 in
  let ok = ref true in
  List.iter
    (fun (e : T.event) ->
      let stack =
        Option.value ~default:[] (Hashtbl.find_opt stacks e.T.dom)
      in
      match e.T.ph with
      | T.Begin -> Hashtbl.replace stacks e.T.dom (e :: stack)
      | T.End -> (
          match stack with
          | top :: rest when top.T.name = e.T.name ->
              Hashtbl.replace stacks e.T.dom rest;
              if e.T.ts_s < top.T.ts_s then ok := false;
              let prev =
                Option.value ~default:0.0 (Hashtbl.find_opt totals e.T.name)
              in
              Hashtbl.replace totals e.T.name (prev +. (e.T.ts_s -. top.T.ts_s))
          | _ -> ok := false)
      | T.Counter -> ())
    events;
  Hashtbl.iter (fun _ stack -> if stack <> [] then ok := false) stacks;
  if !ok then Some totals else None

let well_formed events = Option.is_some (replay events)

let totals_exn what events =
  match replay events with
  | Some t -> t
  | None -> Alcotest.failf "%s: event stream unbalanced or badly nested" what

let total totals name = Option.value ~default:0.0 (Hashtbl.find_opt totals name)

let count ph events =
  List.length (List.filter (fun (e : T.event) -> e.T.ph = ph) events)

(* --- the span law (qcheck) ---------------------------------------- *)

(* Random call trees: each node opens a span around its children and
   may raise out of it; parents catch immediately, so execution
   continues. The law: whatever the tree shape and wherever the
   exceptions fire, the emitted stream is a well-formed per-domain
   bracket sequence with exactly one Begin and one End per node. *)
type tree = Node of int * bool * tree list

let rec tree_size (Node (_, _, kids)) =
  1 + List.fold_left (fun a k -> a + tree_size k) 0 kids

let rec print_tree (Node (n, raises, kids)) =
  Printf.sprintf "N%d%s[%s]" n
    (if raises then "!" else "")
    (String.concat ";" (List.map print_tree kids))

let tree_gen =
  QCheck.Gen.(
    sized_size (int_range 0 30)
    @@ fix (fun self n ->
           let* name = int_range 0 5 in
           let* raises = bool in
           let* kids =
             if n <= 0 then return []
             else list_size (int_range 0 3) (self (n / 2))
           in
           return (Node (name, raises, kids))))

exception Boom

let rec exec (Node (name, raises, kids)) =
  T.with_span
    (Printf.sprintf "span-%d" name)
    (fun () ->
      List.iter (fun k -> try exec k with Boom -> ()) kids;
      if raises then raise Boom)

let exec_root t = try exec t with Boom -> ()

let span_law =
  QCheck.Test.make ~count:300
    ~name:"spans balanced and LIFO-nested, even across exceptions"
    (QCheck.make ~print:print_tree tree_gen)
    (fun t ->
      let (), events = with_memory_sink (fun () -> exec_root t) in
      let n = tree_size t in
      count T.Begin events = n
      && count T.End events = n
      && well_formed events
      (* single-threaded run: one emitting domain *)
      && List.length
           (List.sort_uniq compare
              (List.map (fun (e : T.event) -> e.T.dom) events))
         <= 1)

let span_law_multi_domain =
  QCheck.Test.make ~count:60
    ~name:"nesting holds per domain under concurrent emission"
    (QCheck.make
       ~print:(fun (a, b) -> print_tree a ^ " || " ^ print_tree b)
       QCheck.Gen.(pair tree_gen tree_gen))
    (fun (a, b) ->
      let (), events =
        with_memory_sink (fun () ->
            let d = Domain.spawn (fun () -> exec_root b) in
            exec_root a;
            Domain.join d)
      in
      well_formed events
      && count T.Begin events = tree_size a + tree_size b
      && count T.End events = tree_size a + tree_size b)

(* --- emission semantics ------------------------------------------- *)

let test_disabled_is_inert () =
  T.set_sink None;
  Alcotest.(check bool) "disabled by default" false (T.enabled ());
  (* with_span still runs the function and re-raises *)
  Alcotest.(check int) "value passed through" 7 (T.with_span "x" (fun () -> 7));
  (match T.with_span "x" (fun () -> raise Exit) with
  | () -> Alcotest.fail "expected Exit"
  | exception Exit -> ());
  T.counter "c" 1;
  (* a removed sink records nothing further *)
  let sink, events = T.memory_sink () in
  T.set_sink (Some sink);
  T.with_span "recorded" (fun () -> ());
  T.set_sink None;
  T.with_span "dropped" (fun () -> ());
  T.counter "dropped" 9;
  let evs = events () in
  Alcotest.(check int) "only the enabled span recorded" 2 (List.length evs);
  List.iter
    (fun (e : T.event) ->
      Alcotest.(check string) "recorded span name" "recorded" e.T.name)
    evs

let test_timed_span_matches_events () =
  let (v, dt), events =
    with_memory_sink (fun () ->
        T.timed_span "work" (fun () ->
            (* a few clock ticks of busy work *)
            let s = ref 0 in
            for i = 1 to 100_000 do
              s := !s + i
            done;
            !s))
  in
  Alcotest.(check int) "value returned" 5000050000 v;
  Alcotest.(check bool) "duration non-negative" true (dt >= 0.0);
  match events with
  | [ b; e ] ->
      Alcotest.(check bool) "begin then end" true
        (b.T.ph = T.Begin && e.T.ph = T.End);
      (* the returned duration comes from the very same clock samples *)
      Alcotest.(check (float 0.0)) "duration = End.ts - Begin.ts" dt
        (e.T.ts_s -. b.T.ts_s)
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_counter_event () =
  let (), events = with_memory_sink (fun () -> T.counter "pairs" 38) in
  match events with
  | [ e ] ->
      Alcotest.(check bool) "counter phase" true (e.T.ph = T.Counter);
      Alcotest.(check string) "counter name" "pairs" e.T.name;
      Alcotest.(check int) "counter value" 38 e.T.value
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)

let test_event_json_escaping () =
  let nasty = "a\"b\\c\nd\te\x01f" in
  let e =
    { T.ph = T.Counter; name = nasty; ts_s = 1722950000.123456; dom = 3;
      value = 42 }
  in
  let j = J.of_string (T.event_json e) in
  Alcotest.(check (option string))
    "name round-trips through JSON" (Some nasty)
    (Option.bind (J.member "name" j) J.to_string_opt);
  Alcotest.(check (option string))
    "counter phase tag" (Some "C")
    (Option.bind (J.member "ph" j) J.to_string_opt);
  Alcotest.(check (option int))
    "dom" (Some 3)
    (Option.bind (J.member "dom" j) J.to_int_opt);
  Alcotest.(check (option int))
    "value" (Some 42)
    (Option.bind (J.member "value" j) J.to_int_opt);
  match Option.bind (J.member "ts" j) J.to_float_opt with
  | Some ts ->
      Alcotest.(check bool) "ts within printed precision" true
        (Float.abs (ts -. e.T.ts_s) < 1e-5)
  | None -> Alcotest.fail "ts missing"

(* --- flow integration --------------------------------------------- *)

let flow_app = List.hd Apps.all
let flow_options = { Flow.default_options with Flow.jobs = 1 }

let traced_flow () =
  Memo.reset ();
  with_memory_sink (fun () ->
      Flow.run ~options:flow_options ~name:flow_app.Apps.name
        (flow_app.Apps.build ()))

(* Every stage span total in the event stream equals the corresponding
   [stage_times] entry — same clock samples, same accumulation order,
   so the agreement is exact. *)
let test_flow_spans_match_stage_times () =
  let r, events = traced_flow () in
  let totals = totals_exn "flow trace" events in
  Alcotest.(check bool)
    "stage_times covers all_stages in order" true
    (List.map fst r.Flow.stage_times = Flow.all_stages);
  List.iter
    (fun (st, dt) ->
      Alcotest.(check (float 1e-9))
        ("flow." ^ Flow.stage_name st)
        dt
        (total totals ("flow." ^ Flow.stage_name st)))
    r.Flow.stage_times;
  Alcotest.(check bool)
    "pipeline took measurable time" true
    (List.fold_left (fun a (_, dt) -> a +. dt) 0.0 r.Flow.stage_times > 0.0);
  (* the candidate fan-out counter is in the stream *)
  Alcotest.(check bool)
    "flow.candidates.pairs counter emitted" true
    (List.exists
       (fun (e : T.event) ->
         e.T.ph = T.Counter && e.T.name = "flow.candidates.pairs"
         && e.T.value > 0)
       events)

(* The acceptance path end-to-end at the library level: a file sink's
   JSON lines parse back into a balanced stream whose per-stage totals
   match the ["stages"] object of the [~stages:true] export (to the
   sink's microsecond timestamp precision). *)
let test_file_sink_matches_json_export () =
  let path = Filename.temp_file "lp-trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      T.set_sink (Some (T.file_sink path));
      let r =
        Fun.protect ~finally:T.close (fun () ->
            Memo.reset ();
            Flow.run ~options:flow_options ~name:flow_app.Apps.name
              (flow_app.Apps.build ()))
      in
      let lines =
        let ic = open_in path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let rec go acc =
              match input_line ic with
              | line -> go (line :: acc)
              | exception End_of_file -> List.rev acc
            in
            go [])
      in
      Alcotest.(check bool) "trace file non-empty" true (lines <> []);
      let events =
        List.map
          (fun line ->
            let j = J.of_string line in
            let field name to_opt =
              match Option.bind (J.member name j) to_opt with
              | Some v -> v
              | None -> Alcotest.failf "bad trace line: %s" line
            in
            let ph =
              match field "ph" J.to_string_opt with
              | "B" -> T.Begin
              | "E" -> T.End
              | "C" -> T.Counter
              | p -> Alcotest.failf "unknown phase %S" p
            in
            {
              T.ph;
              name = field "name" J.to_string_opt;
              ts_s = field "ts" J.to_float_opt;
              dom = field "dom" J.to_int_opt;
              value =
                Option.value ~default:0
                  (Option.bind (J.member "value" j) J.to_int_opt);
            })
          lines
      in
      let totals = totals_exn "trace file" events in
      let stages = J.of_string (J.to_string (Lp_report.Export.stages r)) in
      (* and the same object rides in result_json ~stages:true — while
         the default export stays stage-free *)
      Alcotest.(check bool)
        "default export has no stages key" true
        (J.member "stages" (J.of_string (Lp_report.Export.result_json r))
        = None);
      (match
         J.member "stages"
           (J.of_string (Lp_report.Export.result_json ~stages:true r))
       with
      | Some s ->
          Alcotest.(check string)
            "opt-in export embeds the stages object" (J.to_string stages)
            (J.to_string s)
      | None -> Alcotest.fail "result_json ~stages:true lacks stages");
      List.iter
        (fun st ->
          let k = Flow.stage_name st in
          let exported =
            match Option.bind (J.member k stages) J.to_float_opt with
            | Some v -> v
            | None -> Alcotest.failf "stages export misses %S" k
          in
          (* ts is printed with 6 fractional digits; Verify sums two
             pairs, so allow a few microseconds of rounding. *)
          Alcotest.(check (float 1e-5))
            ("stages." ^ k ^ " matches trace") exported
            (total totals ("flow." ^ k)))
        Flow.all_stages)

let () =
  Alcotest.run "span_trace"
    [
      ( "law",
        List.map QCheck_alcotest.to_alcotest
          [ span_law; span_law_multi_domain ] );
      ( "emission",
        [
          Alcotest.test_case "disabled tracing is inert" `Quick
            test_disabled_is_inert;
          Alcotest.test_case "timed_span agrees with its events" `Quick
            test_timed_span_matches_events;
          Alcotest.test_case "counter" `Quick test_counter_event;
          Alcotest.test_case "JSON escaping" `Quick test_event_json_escaping;
        ] );
      ( "flow",
        [
          Alcotest.test_case "span totals equal stage_times" `Quick
            test_flow_spans_match_stage_times;
          Alcotest.test_case "trace file matches JSON export" `Quick
            test_file_sink_matches_json_export;
        ] );
    ]
