(* The benchmark's workload process: one workload, one run.

     main.exe run --workload paper-cold --seed 1 --seconds 10 --trace 0 \
       --out perfbench/results/paper-cold/seed-1
     main.exe record-goldens --out perfbench/goldens.json

   Run from the repository root. [run] prints one line per fact, which
   perfbench/run.py parses:

     tag <key> <value>            run identity (workload, seed, ...)
     metric <name> <value> <unit> a measured figure
     program <name> <ops> <p50 ms> one program's share of the phase
     failure <message>            a check that did not hold
     summary <correct> <attempted> <failed>

   With --trace 1 it also writes spans.jsonl and layers.md into --out. *)

open Perfbench

let process_start = Stats.now_s ()

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0))
  |> Option.value ~default:nan

let tag k v = Printf.printf "tag %s %s\n" k v
let metric name unit_ v = Printf.printf "metric %s %.17g %s\n" name v unit_

let end_to_end ~setup_s (ph : Workload.phase) =
  let lat = List.map (fun (s : Workload.sample) -> s.latency_s) ph.samples in
  metric "setup_s" "s" setup_s;
  metric "ops_per_s" "1/s" (Workload.ops_per_s ph);
  metric "latency_p50_ms" "ms" (1e3 *. Stats.median lat);
  (match Stats.percentile ~pct:90 lat with
  | Some p90 -> metric "latency_p90_ms" "ms" (1e3 *. p90)
  | None -> ());
  metric "peak_rss_mb" "MB" (peak_rss_mb ())

let per_program (programs : Workload.program array) (ph : Workload.phase) =
  Array.iteri
    (fun i (p : Workload.program) ->
      let lat =
        List.filter_map
          (fun (s : Workload.sample) ->
            if s.prog = i then Some s.latency_s else None)
          ph.samples
      in
      Printf.printf "program %s %d %.6f\n" p.name (List.length lat)
        (1e3 *. Stats.median lat))
    programs

let write_layers out metrics (spans : Spans.row list) counters =
  Out_channel.with_open_text (Filename.concat out "layers.md") (fun oc ->
      Printf.fprintf oc "| metric | value | unit | should move |\n|---|---|---|---|\n";
      List.iter
        (fun (x : Layers.metric) ->
          Printf.fprintf oc "| %s | %.6g | %s | %s |\n" x.name x.value x.unit_
            (Layers.should_move x.name))
        metrics;
      Printf.fprintf oc
        "\n| span | count | total ms | self ms |\n|---|---|---|---|\n";
      List.iter
        (fun (r : Spans.row) ->
          Printf.fprintf oc "| %s | %d | %.3f | %.3f |\n" r.name r.count
            (1e3 *. r.total_s) (1e3 *. r.self_s))
        spans;
      Printf.fprintf oc "\n| counter | samples | sum |\n|---|---|---|\n";
      List.iter
        (fun (name, sum, n) -> Printf.fprintf oc "| %s | %d | %d |\n" name n sum)
        counters)

let corpus = "bench/corpus.json"
let goldens = "perfbench/goldens.json"

(* service-warm repeats its set-up up front at least this often. *)
let setup_reps = 9

let run kind ~seed ~seconds ~trace ~out =
  let cfg =
    { Workload.seed; corpus; goldens = Golden.load goldens; scratch = out }
  in
  tag "workload" (Workload.kind_name kind);
  tag "seed" (string_of_int seed);
  tag "seconds" (Printf.sprintf "%g" seconds);
  tag "trace" (if trace then "1" else "0");
  tag "host_cpus" (string_of_int Workload.nproc);
  tag "ocaml" Sys.ocaml_version;
  (* Set-up is repeated and its median reported; the first repetition
     counts from process start. A cold workload repeats it after every
     round of the timed phase, so the repetitions span the run like the
     ops do; service-warm, whose set-up includes a cold pass, repeats it
     up front, at least [setup_reps] times and for half a second. *)
  let setup_times = ref [] in
  let timed_setup t0 =
    let inst = Workload.setup kind cfg in
    setup_times := (Stats.now_s () -. t0) :: !setup_times;
    inst
  in
  let rec up_front inst =
    if
      kind = Workload.Service_warm
      && (List.length !setup_times < setup_reps
         || Stats.now_s () -. process_start < 0.5)
    then begin
      inst.Workload.close ();
      up_front (timed_setup (Stats.now_s ()))
    end
    else inst
  in
  let inst = timed_setup process_start in
  let inst = if trace then inst else up_front inst in
  let between () = (timed_setup (Stats.now_s ())).Workload.close () in
  let phases =
    if not trace then begin
      let ph = inst.Workload.phase ~between ~seconds in
      let setup_s = Stats.median !setup_times in
      Printf.printf "tag setup_reps %d\n" (List.length !setup_times);
      let bad = inst.verify () in
      end_to_end ~setup_s ph;
      inst.close ();
      ([ ph ], bad)
    end
    else begin
      let untraced = inst.Workload.phase ~between:ignore ~seconds:(seconds /. 2.0) in
      let sink, events = Lp_trace.memory_sink () in
      Lp_trace.set_sink (Some sink);
      let traced = inst.phase ~between:ignore ~seconds:(seconds /. 2.0) in
      Lp_trace.set_sink None;
      let bad = inst.verify () in
      let results = inst.results () in
      inst.close ();
      Lp_trace.set_sink (Some sink);
      let metrics =
        Layers.collect ~untraced ~traced inst.programs results
      in
      Lp_trace.set_sink None;
      let events = events () in
      List.iter (fun (x : Layers.metric) -> metric x.name x.unit_ x.value) metrics;
      Spans.write_events (Filename.concat out "spans.jsonl") events;
      write_layers out metrics (Spans.self_times events) (Spans.counters events);
      ([ untraced; traced ], bad)
    end
  in
  let phases, bad = phases in
  per_program inst.programs (List.hd phases);
  let attempted =
    List.fold_left (fun a (ph : Workload.phase) -> a + List.length ph.samples) 0 phases
  in
  let failed = Workload.failed phases (List.map fst bad) in
  if not trace then
    metric "failed_frac" "ratio" (float_of_int failed /. float_of_int attempted);
  List.iter
    (fun m -> Printf.printf "failure %s\n" m)
    (List.sort_uniq compare
       (List.concat_map (fun (ph : Workload.phase) -> ph.failures) phases
       @ List.map snd bad));
  Printf.printf "summary %b %d %d\n%!" (failed = 0) attempted failed

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and out = ref "" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, " paper-cold | service-warm | gen-scale");
      ("--seed", Arg.Set_int seed, " generator seed (default 1)");
      ("--seconds", Arg.Set_float seconds, " timed phase length (default 10)");
      ("--trace", Arg.Set_int trace, " 1 = traced per-layer run");
      ("--out", Arg.Set_string out, " output directory (goldens file for record-goldens)");
    ]
  in
  let cmd = ref "" in
  Arg.parse (Arg.align specs) (fun a -> cmd := a) "main.exe (run | record-goldens) [options]";
  match !cmd with
  | "run" -> (
      match List.assoc_opt !workload Workload.kinds with
      | None ->
          prerr_endline ("unknown workload: " ^ !workload);
          exit 2
      | Some kind ->
          if !out = "" then (prerr_endline "--out is required"; exit 2);
          run kind ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~out:!out)
  | "record-goldens" ->
      let cfg = { Workload.seed = 1; corpus; goldens = Golden.empty; scratch = "." } in
      Golden.save !out (Workload.record_goldens cfg);
      Printf.printf "wrote %s\n" !out
  | c ->
      prerr_endline ("unknown command: " ^ c);
      exit 2
