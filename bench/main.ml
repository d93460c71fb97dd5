(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 4) plus the ablations DESIGN.md calls out, and
   times the flow's stages with Bechamel.

   Subcommands (default = table1 + fig6 + hwcost):

     main.exe [table1|fig6|hwcost|ablation-f|ablation-rs|ablation-nmax|
               cache-sweep|speed|serve|explore|all]

   Experiment index (see DESIGN.md):
     E1 table1        the paper's Table 1
     E2 fig6          the paper's Figure 6
     E3 ablation-f    objective factor F sweep (Fig. 1 line 13)
     E4 ablation-rs   designer resource-set sweep (Section 3.2)
     E5 ablation-nmax pre-selection bound sweep (Section 3.3)
     E6 hwcost        the "<16k cells" hardware audit
     E7 cache-sweep   cache adaptation of the partitioned design
                      (footnote 2)
     E8 ablation-opt  software code quality (IR optimiser, peephole)
     E9 ablation-sched list scheduling vs force-directed scheduling
     E10 ablation-vdd ASIC supply-voltage scaling (multi-voltage ext.)
     E11 ablation-unroll loop unrolling: ILP vs datapath area
     F1 future-work   control-dominated probe app
     B* speed         Bechamel micro-benchmarks of the flow stages
     B8 serve         partitioning-service latency/throughput
     B9 explore       design-space explorer sweep latency *)

module Flow = Lp_core.Flow
module Memo = Lp_core.Memo
module System = Lp_system.System
module Apps = Lp_apps.Apps
module Tables = Lp_report.Paper_tables
module Parmap = Lp_parallel.Parmap
module Json = Lp_json

let section title = Printf.printf "\n== %s ==\n%!" title

(* Applications are independent, so every sweep fans out one flow run
   per application on a transient domain pool. The inner candidate
   fan-out is forced sequential ([jobs = 1]) to avoid nesting domain
   pools; cross-run sharing still happens through the Memo cache, which
   is domain-safe. Orderings are deterministic (Parmap preserves
   indices), so the emitted tables are byte-identical to a sequential
   harness. *)
let bench_domains = Flow.default_jobs - 1

let seq_options = { Flow.default_options with Flow.jobs = 1 }

let par_apps f = Parmap.list ~domains:bench_domains f Apps.all

(* Flow results are reused across subcommands within one invocation. *)
let results =
  lazy
    (par_apps
       (fun (e : Apps.entry) ->
         Flow.run ~options:seq_options ~name:e.name (e.build ())))

let table1 () =
  section
    "E1 / Table 1: per-core energy and execution time, initial (I) vs \
     partitioned (P)";
  print_endline (Tables.table1 (Lazy.force results))

let fig6 () =
  section "E2 / Figure 6: energy savings and execution-time change per application";
  print_endline (Tables.fig6 (Lazy.force results));
  print_newline ();
  print_endline "CSV:";
  print_endline (Tables.fig6_csv (Lazy.force results))

let hwcost () =
  section "E6: ASIC hardware cost (paper claim: < 16k cells per application)";
  print_endline (Tables.hardware_cost (Lazy.force results));
  List.iter
    (fun (r : Flow.result) ->
      if r.Flow.total_cells > 16_000 then
        Printf.printf "!! %s exceeds the 16k-cell budget\n" r.Flow.name)
    (Lazy.force results)

let pct x = Printf.sprintf "%.1f" (100.0 *. x)

let ablation_f () =
  section "E3: objective-function factor F (energy weight vs hardware cost)";
  let fs = [ 0.5; 1.0; 2.0; 4.0; 8.0; 16.0; 32.0 ] in
  let header =
    "F"
    :: List.concat_map
         (fun (e : Apps.entry) -> [ e.name ^ " sav%"; "cells" ])
         Apps.all
  in
  let rows =
    List.map
      (fun f ->
        let cells =
          par_apps (fun (e : Apps.entry) ->
              let options = { seq_options with Flow.f } in
              let r = Flow.run ~options ~name:e.name (e.build ()) in
              [ pct r.Flow.energy_saving; string_of_int r.Flow.total_cells ])
        in
        Printf.sprintf "%.1f" f :: List.concat cells)
      fs
  in
  print_endline (Lp_report.Table.render ~header rows);
  print_endline
    "(low F: the hardware term dominates and clusters are rejected — the\n\
     paper's 'trick' discussion; high F: energy dominates.)"

let ablation_rs () =
  section "E4: designer resource sets (Section 3.2: '3 to 5 sets are given')";
  let open Lp_tech.Resource_set in
  let variants =
    [
      ("tiny only", [ tiny ]);
      ("small only", [ small ]);
      ("medium only", [ medium_dsp ]);
      ("large only", [ large_dsp ]);
      ("control only", [ control ]);
      ("all five", [ tiny; small; medium_dsp; large_dsp; control ]);
      ("default four", default_sets);
    ]
  in
  let header =
    "sets" :: List.map (fun (e : Apps.entry) -> e.name ^ " sav%") Apps.all
  in
  let rows =
    List.map
      (fun (label, sets) ->
        label
        :: par_apps (fun (e : Apps.entry) ->
               let options = { seq_options with Flow.resource_sets = sets } in
               let r = Flow.run ~options ~name:e.name (e.build ()) in
               pct r.Flow.energy_saving))
      variants
  in
  print_endline (Lp_report.Table.render ~header rows)

let ablation_nmax () =
  section "E5: pre-selection bound N_max (Fig. 1 line 5)";
  let header =
    ("N_max" :: List.map (fun (e : Apps.entry) -> e.name ^ " sav%") Apps.all)
    @ [ "candidates"; "flow time (s)" ]
  in
  let rows =
    List.map
      (fun n_max ->
        let t0 = Unix.gettimeofday () in
        let rs =
          par_apps (fun (e : Apps.entry) ->
              let options = { seq_options with Flow.n_max } in
              Flow.run ~options ~name:e.name (e.build ()))
        in
        let dt = Unix.gettimeofday () -. t0 in
        let evaluated =
          List.fold_left (fun acc r -> acc + List.length r.Flow.candidates) 0 rs
        in
        (string_of_int n_max :: List.map (fun r -> pct r.Flow.energy_saving) rs)
        @ [ string_of_int evaluated; Printf.sprintf "%.2f" dt ])
      [ 1; 2; 4; 8 ]
  in
  print_endline (Lp_report.Table.render ~header rows)

let cache_sweep () =
  section
    "E7: cache adaptation (footnote 2: the partitioned system's access \
     pattern changes)";
  let sizes = [ 512; 1024; 2048; 4096; 8192 ] in
  let apps = [ "mpg"; "engine" ] in
  let header =
    "cache size"
    :: List.concat_map (fun a -> [ a ^ " I total"; a ^ " P total"; "sav%" ]) apps
  in
  let rows =
    List.map
      (fun size ->
        let cfg cache = { cache with Lp_cache.Cache.size_bytes = size } in
        let config =
          {
            System.default_config with
            System.icache = cfg Lp_cache.Cache.default_icache;
            dcache = cfg Lp_cache.Cache.default_dcache;
          }
        in
        let cols =
          List.concat
            (Parmap.list ~domains:bench_domains
               (fun name ->
              let e = Option.get (Apps.find name) in
              let options = { seq_options with Flow.config = config } in
              let r = Flow.run ~options ~name (e.Apps.build ()) in
              [
                Lp_tech.Units.energy_to_string
                  (System.total_energy_j r.Flow.initial);
                Lp_tech.Units.energy_to_string
                  (System.total_energy_j r.Flow.partitioned);
                pct r.Flow.energy_saving;
              ])
               apps)
        in
        Printf.sprintf "%dB" size :: cols)
      sizes
  in
  print_endline (Lp_report.Table.render ~header rows)

let ablation_opt () =
  section
    "E8: software code quality (IR optimiser / assembly peephole) vs      partition";
  (* The instruction-level power work the paper builds on (ref [12])
     treats compiler quality as an energy knob of its own; here we check
     how much of the partitioning story survives better software. *)
  let modes =
    [
      ("baseline", false, false);
      ("+IR optim", true, false);
      ("+peephole", true, true);
    ]
  in
  let header =
    "mode"
    :: List.concat_map
         (fun (e : Apps.entry) -> [ e.name ^ " I total"; "sav%"; "dt%" ])
         Apps.all
  in
  let rows =
    List.map
      (fun (label, use_ir_opt, peephole) ->
        let cols =
          List.concat
            (par_apps (fun (e : Apps.entry) ->
                 let p = e.build () in
                 let p =
                   if use_ir_opt then Lp_ir.Optim.optimize_program p else p
                 in
                 let config = { System.default_config with System.peephole } in
                 let options = { seq_options with Flow.config = config } in
                 let r = Flow.run ~options ~name:e.name p in
                 [
                   Lp_tech.Units.energy_to_string
                     (System.total_energy_j r.Flow.initial);
                   pct r.Flow.energy_saving;
                   Printf.sprintf "%+.1f" (100.0 *. r.Flow.time_change);
                 ]))
        in
        label :: cols)
      modes
  in
  print_endline (Lp_report.Table.render ~header rows)

let ablation_sched () =
  section
    "E9: scheduling algorithm — list (resource-constrained) vs      force-directed (time-constrained)";
  (* Re-schedule every selected cluster's segments with FDS at the list
     schedule's own latency and at 2x, then re-bind: same binder, so
     utilisation and cells are directly comparable. *)
  let module Bind = Lp_bind.Bind in
  let module Sched = Lp_sched.Sched in
  let module Fds = Lp_sched.Fds in
  let header =
    [ "app"; "sched"; "cluster cycles"; "U_R"; "instances"; "GEQ" ]
  in
  let rows =
    List.concat_map
      (fun (r : Flow.result) ->
        List.concat_map
          (fun (core : Flow.core) ->
            let segs = core.Flow.core_segments in
            let describe label (b : Bind.result) =
              [
                r.Flow.name;
                label;
                string_of_int b.Bind.n_cyc;
                Printf.sprintf "%.3f" b.Bind.utilization;
                string_of_int
                  (List.fold_left (fun a (_, n) -> a + n) 0 b.Bind.instances);
                string_of_int b.Bind.geq;
              ]
            in
            let reschedule stretch =
              let segs' =
                List.filter_map
                  (fun (s : Bind.segment_schedule) ->
                    let dfg = s.Bind.sched.Sched.dfg in
                    let budget =
                      max (Fds.min_latency dfg)
                        (stretch * max 1 s.Bind.sched.Sched.length)
                    in
                    Option.map
                      (fun sched -> { Bind.sched; times = s.Bind.times })
                      (Fds.schedule dfg ~latency:budget))
                  segs
              in
              Bind.bind segs'
            in
            [
              describe "list" core.Flow.core_bind;
              describe "fds @1x" (reschedule 1);
              describe "fds @2x" (reschedule 2);
            ])
          r.Flow.cores)
      (Lazy.force results)
  in
  print_endline (Lp_report.Table.render ~header rows);
  (* And as a full-flow end-to-end comparison. *)
  let header2 =
    "scheduler" :: List.map (fun (e : Apps.entry) -> e.name ^ " sav%") Apps.all
  in
  let full label scheduler =
    label
    :: par_apps (fun (e : Apps.entry) ->
           let options = { seq_options with Flow.scheduler } in
           pct (Flow.run ~options ~name:e.name (e.build ())).Flow.energy_saving)
  in
  print_newline ();
  print_endline
    (Lp_report.Table.render ~header:header2
       [
         full "list" Lp_core.Candidate.List_sched;
         full "fds @1x" (Lp_core.Candidate.Fds 1.0);
         full "fds @1.5x" (Lp_core.Candidate.Fds 1.5);
       ])

let ablation_vdd () =
  section
    "E10: ASIC supply-voltage scaling (extension after Hong/Kirovski      DAC'98 [paper ref 10])";
  let header =
    "Vdd"
    :: List.concat_map
         (fun name -> [ name ^ " sav%"; "dt%" ])
         [ "digs"; "ckey"; "trick" ]
  in
  let rows =
    List.map
      (fun v ->
        let cols =
          List.concat
            (Parmap.list ~domains:bench_domains
               (fun name ->
                 let e = Option.get (Apps.find name) in
                 let options = { seq_options with Flow.asic_vdd_v = v } in
                 let r = Flow.run ~options ~name (e.Apps.build ()) in
                 [
                   pct r.Flow.energy_saving;
                   Printf.sprintf "%+.1f" (100.0 *. r.Flow.time_change);
                 ])
               [ "digs"; "ckey"; "trick" ])
        in
        Printf.sprintf "%.1fV" v :: cols)
      [ 3.3; 2.7; 2.0; 1.5; 1.2 ]
  in
  print_endline (Lp_report.Table.render ~header rows);
  print_endline
    "(lower supply: quadratically less ASIC energy, polynomially slower\n\
     cores — the energy-delay trade of multiple-voltage core design.)"

let ablation_unroll () =
  section
    "E11: loop unrolling (HLS preprocessing) — ILP vs datapath area";
  let header =
    [ "app"; "unroll"; "budget"; "sav%"; "ASIC cyc"; "cells" ]
  in
  let items =
    List.concat_map
      (fun name ->
        List.concat_map
          (fun factor ->
            List.map
              (fun budget -> (name, factor, budget))
              [ ("20k", 20_000); ("60k", 60_000) ])
          [ 1; 2; 4 ])
      [ "digs"; "ckey" ]
  in
  let rows =
    Parmap.list ~domains:bench_domains
      (fun (name, factor, (blabel, max_cells)) ->
        let e = Option.get (Apps.find name) in
        let p = e.Apps.build () in
        let p = if factor > 1 then Lp_ir.Optim.unroll ~factor p else p in
        let options = { seq_options with Flow.max_cells } in
        let r = Flow.run ~options ~name p in
        [
          name;
          string_of_int factor;
          blabel;
          pct r.Flow.energy_saving;
          string_of_int r.Flow.partitioned.System.asic_cycles;
          string_of_int r.Flow.total_cells;
        ])
      items
  in
  print_endline (Lp_report.Table.render ~header rows);
  print_endline
    "(unrolling shortens the kernel's schedule but multiplies FSM state\n\
     and register count: under the paper's ~16-20k budget the unrolled\n\
     datapath is priced out, with a lifted budget it wins cycles.)"

let future_work () =
  section
    "F1: control-dominated probe (the paper's stated future work)";
  let entries =
    List.filter
      (fun (e : Apps.entry) -> e.name = "digs" || e.name = "protocol")
      Apps.extended
  in
  let rs = List.map (fun (e : Apps.entry) -> Flow.run ~name:e.name (e.build ())) entries in
  print_endline (Tables.table1 rs);
  print_endline
    "(the protocol automaton offers almost no high-utilisation clusters:\n\
     only its audit kernel moves, and the saving collapses vs the DSP\n\
     suite — exactly why the paper defers control-dominated systems to\n\
     future work.)"

(* --- B*: flow performance — stage timings, parallel speedup, cache
   behaviour — with a machine-readable BENCH_flow.json dump so later
   changes have a perf trajectory to compare against. --- *)

(* Smoke checks run in tier-1: when one fails the output must say what
   was measured, what was expected and why it is gated — a bare assert
   (the old behaviour) told a contributor nothing. *)
let smoke_fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "\nBENCH SMOKE FAILURE\n%s\n" msg;
      exit 2)
    fmt

(* BENCH_flow.json in the current directory: [speed] writes the whole
   document, every other bench replaces one top-level key of it. *)
let bench_file = "BENCH_flow.json"

let write_bench doc =
  Out_channel.with_open_bin bench_file (fun oc ->
      Json.to_channel oc doc;
      output_char oc '\n')

let merge_bench_key key value =
  let fields =
    if Sys.file_exists bench_file then
      match Json.parse (In_channel.with_open_bin bench_file In_channel.input_all) with
      | Ok (Json.Assoc fields) -> List.remove_assoc key fields
      | Ok _ | Error _ -> []
    else []
  in
  write_bench (Json.Assoc (fields @ [ (key, value) ]));
  Printf.printf "  merged %s results into %s\n%!" key bench_file

let wall f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let median samples =
  let a = Array.of_list (List.sort compare samples) in
  a.(Array.length a / 2)

(* Median-of-reps wall time of one stage, in milliseconds per run. *)
let time_stage ~reps f =
  ignore (f ());
  let samples =
    List.init reps (fun _ ->
        let _, dt = wall f in
        dt)
    |> List.sort compare
  in
  1e3 *. List.nth samples (reps / 2)

(* Sequential vs parallel full-flow timing over every application, both
   from a cold candidate cache, plus a warm parallel pass. *)
let flow_timing () =
  let run_all options =
    List.iter
      (fun (e : Apps.entry) ->
        ignore (Flow.run ~options ~name:e.name (e.build ())))
      Apps.all
  in
  Memo.reset ();
  let (), seq_s = wall (fun () -> run_all { Flow.default_options with Flow.jobs = 1 }) in
  let seq_stats = Memo.stats () in
  Memo.reset ();
  let (), par_s = wall (fun () -> run_all Flow.default_options) in
  let par_stats = Memo.stats () in
  let (), warm_s = wall (fun () -> run_all Flow.default_options) in
  let all_stats = Memo.stats () in
  (* hit rate of the warm pass alone, not cumulative since the reset *)
  let wh = all_stats.Memo.hits - par_stats.Memo.hits
  and wm = all_stats.Memo.misses - par_stats.Memo.misses in
  let warm_rate =
    if wh + wm = 0 then 0.0 else float_of_int wh /. float_of_int (wh + wm)
  in
  (seq_s, par_s, warm_s, seq_stats, warm_rate)

(* The E3 objective-factor sweep, instrumented: F is not part of the
   candidate-cache key, so every sweep point after the first should be
   (nearly) all hits. *)
let f_sweep_cache () =
  Memo.reset ();
  let fs = [ 0.5; 1.0; 2.0; 4.0; 8.0 ] in
  let points =
    List.map
      (fun f ->
        let before = Memo.stats () in
        List.iter
          (fun (e : Apps.entry) ->
            let options = { seq_options with Flow.f } in
            ignore (Flow.run ~options ~name:e.name (e.build ())))
          Apps.all;
        let after = Memo.stats () in
        let hits = after.Memo.hits - before.Memo.hits in
        let misses = after.Memo.misses - before.Memo.misses in
        let rate =
          if hits + misses = 0 then 0.0
          else float_of_int hits /. float_of_int (hits + misses)
        in
        (f, hits, misses, rate))
      fs
  in
  let rest = List.tl points in
  let rest_hits = List.fold_left (fun a (_, h, _, _) -> a + h) 0 rest in
  let rest_misses = List.fold_left (fun a (_, _, m, _) -> a + m) 0 rest in
  let rest_rate =
    if rest_hits + rest_misses = 0 then 0.0
    else float_of_int rest_hits /. float_of_int (rest_hits + rest_misses)
  in
  (points, rest_rate)

let stage_timings () =
  let digs_small = Lp_apps.Digs.program ~width:16 () in
  let interp = Lp_ir.Interp.run digs_small in
  let chain = Lp_cluster.Cluster.decompose digs_small in
  let kernel = List.nth chain 1 in
  let segs = Lp_cluster.Cluster.segments kernel in
  let dfgs =
    List.filter_map
      (fun (s : Lp_cluster.Cluster.segment) ->
        Lp_ir.Dfg.of_segment s.Lp_cluster.Cluster.seg_exprs
          s.Lp_cluster.Cluster.seg_stmts)
      segs
  in
  let sched_one dfg =
    Option.get (Lp_sched.Sched.schedule dfg Lp_tech.Resource_set.medium_dsp)
  in
  let scheds = List.map sched_one dfgs in
  let seg_schedules =
    List.map (fun sched -> { Lp_bind.Bind.sched; times = 100 }) scheds
  in
  let pre = Lp_preselect.Preselect.create digs_small chain in
  let reps = 9 in
  [
    ( "list-schedule",
      time_stage ~reps (fun () -> List.map sched_one dfgs) );
    ( "bind",
      time_stage ~reps (fun () -> Lp_bind.Bind.bind seg_schedules) );
    ( "preselect",
      time_stage ~reps (fun () ->
          Lp_preselect.Preselect.pre_select pre
            ~profile:interp.Lp_ir.Interp.profile ~n_max:8) );
    ( "system-sim",
      time_stage ~reps (fun () -> System.run digs_small) );
    ( "full-flow-seq",
      time_stage ~reps (fun () ->
          Memo.reset ();
          Flow.run ~options:seq_options ~name:"digs16" digs_small) );
    ( "full-flow-warm",
      time_stage ~reps (fun () -> Flow.run ~name:"digs16" digs_small) );
  ]

(* Long-trace micro-workload for the raw ISS throughput figure. The
   application suite's kernels run only a few thousand instructions at
   the bench width, short enough that create/load overhead pollutes a
   MIPS measurement; this seeded arithmetic mixer executes a trace in
   the tens of thousands of instructions. The loop body is unrolled
   [unroll] times with per-copy constants, so the compiled code is a
   long straight-line region — exactly the shape the basic-block engine
   compiles into multi-line superops. Division- and branch-free inside
   the body; fully deterministic from [seed]. *)
let iss_workload_name = "mixer-unroll32"

let iss_workload ?(seed = 0x2F6E2B1) () =
  let unroll = 32 in
  let iters = 64 in
  let body k =
    let addend = 12345 + k and sh = 1 + (k mod 13) in
    let open Lp_ir.Builder in
    [
      "a" := (var "a" * int 1103515245) + int addend;
      "b" := var "b" ^^^ (var "a" >>> int sh);
      "acc" := (var "acc" + (var "a" &&& int 0xFFFF)) ^^^ (var "b" <<< int 1);
    ]
  in
  let open Lp_ir.Builder in
  program
    ~arrays:[ array "scratch" 64 ]
    [
      func "main" ~params:[] ~locals:[ "a"; "b"; "acc"; "i" ]
        [
          "a" := int seed;
          "b" := int 0x1E3779B9;
          "acc" := int 0;
          for_ "i" (int 0) (int iters)
            (List.concat (List.init unroll body)
            @ [ store "scratch" (var "i" &&& int 63) (var "acc") ]);
          print (var "acc");
        ];
    ]

type sim_metrics = {
  sm_workload : string;  (** what iss_mips is measured on *)
  sm_instrs : int;  (** dynamic trace length of that workload *)
  sm_blocks : int;  (** static superops compiled for it *)
  sm_block_entries : int;  (** dynamic superop executions *)
  sm_iss_mips : float;
  sm_system_mips : float;  (** ISS on the machine [System.prepare] builds *)
  sm_interp_msteps : float;  (** IR interpreter, mpg profile run *)
  sm_cold_ms : float;  (** initial ("I") system sim, memo-cold *)
  sm_warm_ms : float;  (** same, through the Memo initial-report tier *)
}

(* Raw simulation speed: the IR interpreter's throughput on the mpg
   profile run (the ladder's first rung), ISS throughput (no memory
   system, null hooks) on the long-trace micro-workload, ISS throughput
   with [System]'s cache/memory hooks on the same workload (the second
   rung), and the latency
   of the initial ("I") system simulation of digs16 cold vs warm through
   the Memo initial-report tier. *)
let sim_metrics () =
  let workload = iss_workload () in
  let prog, layout = Lp_compiler.Compiler.compile workload in
  let data = Lp_compiler.Compiler.initial_data workload layout in
  let iss_run () =
    let m = Lp_iss.Iss.create prog Lp_iss.Iss.null_hooks in
    List.iter (fun (base, img) -> Lp_iss.Iss.load_data m base img) data;
    Lp_iss.Iss.run m;
    m
  in
  let m = iss_run () in
  let r = Lp_iss.Iss.result m in
  let blocks, entries = Lp_iss.Iss.block_stats m in
  let reps = 9 in
  (* One ISS run takes about 0.15 ms, so nine back-to-back samples span
     under 2 ms and a single burst of load from elsewhere on the host
     can cover all of them; 51 samples spread the median over ~8 ms. *)
  let iss_reps = 51 in
  let samples =
    List.init iss_reps (fun _ -> snd (wall (fun () -> ignore (iss_run ()))))
    |> List.sort compare
  in
  let dt = List.nth samples (iss_reps / 2) in
  let iss_mips = float_of_int r.Lp_iss.Iss.instr_count /. dt /. 1e6 in
  (* The same run on the machine [System.run] builds, memory system and
     all. The compile inside [System.prepare] is left out, as for
     [iss_mips]: on this short trace it took most of a [System.run]. *)
  let system_samples =
    List.init iss_reps (fun _ ->
        let sim = System.prepare workload in
        snd (wall (fun () -> Lp_iss.Iss.run (System.machine sim))))
    |> List.sort compare
  in
  let sys_s = List.nth system_samples (iss_reps / 2) in
  let system_mips = float_of_int r.Lp_iss.Iss.instr_count /. sys_s /. 1e6 in
  let mpg = Lp_apps.Mpg.program () in
  let steps = (Lp_ir.Interp.run mpg).Lp_ir.Interp.steps in
  let interp_ms = time_stage ~reps (fun () -> Lp_ir.Interp.run mpg) in
  let digs_small = Lp_apps.Digs.program ~width:16 () in
  let config = System.default_config in
  let initial_once () = Memo.initial_report ~config digs_small in
  Memo.reset ();
  let _, cold_s = wall initial_once in
  let warm_ms = time_stage ~reps initial_once in
  Memo.reset ();
  {
    sm_workload = iss_workload_name;
    sm_instrs = r.Lp_iss.Iss.instr_count;
    sm_blocks = blocks;
    sm_block_entries = entries;
    sm_iss_mips = iss_mips;
    sm_system_mips = system_mips;
    sm_interp_msteps = float_of_int steps /. interp_ms /. 1e3;
    sm_cold_ms = 1e3 *. cold_s;
    sm_warm_ms = warm_ms;
  }

(* Per-app candidate fan-out width: the (cluster x resource set) pair
   count each flow evaluates, read back from the [flow.candidates.pairs]
   trace counter. This decides whether the parallel full-flow figure is
   meaningful: below [Flow.pool_threshold] pairs the flow never
   dispatches candidate evaluation to the pool, so a "parallel" run
   measures pool bookkeeping, not speedup, and the JSON says so. *)
let candidate_pairs_per_app () =
  List.map
    (fun (e : Apps.entry) ->
      let sink, events = Lp_trace.memory_sink () in
      Lp_trace.set_sink (Some sink);
      ignore (Flow.run ~options:seq_options ~name:e.name (e.build ()));
      Lp_trace.set_sink None;
      let pairs =
        List.fold_left
          (fun acc (ev : Lp_trace.event) ->
            if String.equal ev.Lp_trace.name "flow.candidates.pairs" then
              max acc ev.Lp_trace.value
            else acc)
          0 (events ())
      in
      (e.name, pairs))
    Apps.all

(* Candidate-evaluation rung: microseconds per (cluster x resource set)
   pair of [Candidate.evaluate] (no memo) over gen:deep:1's 64 pairs —
   the matrix the cold flow's Candidates stage evaluates. Each sample
   is one sweep over all pairs; the figure is the median sweep's mean
   per pair. *)
let cand_eval_us () =
  let spec, seed =
    match Lp_gen.Gen.parse_name "gen:deep:1" with
    | Ok p -> p
    | Error msg -> failwith msg
  in
  let program = Lp_gen.Gen.generate spec ~seed in
  let profile = (Lp_ir.Interp.run program).Lp_ir.Interp.profile in
  let chain = Lp_cluster.Cluster.decompose program in
  let pairs =
    Lp_preselect.Preselect.pre_select
      (Lp_preselect.Preselect.create program chain)
      ~profile ~n_max:spec.Lp_gen.Gen.clusters
    |> List.concat_map (fun (c, (est : Lp_preselect.Preselect.estimate)) ->
           List.map
             (fun rs -> (c, est.Lp_preselect.Preselect.energy_j, rs))
             Lp_tech.Resource_set.default_sets)
  in
  let sweep () =
    List.iter
      (fun (c, e_trans_j, rs) ->
        ignore (Lp_core.Candidate.evaluate ~profile ~e_trans_j c rs))
      pairs
  in
  1e3 *. time_stage ~reps:7 sweep /. float_of_int (List.length pairs)

let rec speed ?(smoke = false) () =
  section "B7: evaluation-engine performance (BENCH_flow.json)";
  let stages = stage_timings () in
  List.iter (fun (name, ms) -> Printf.printf "  %-16s %8.3f ms/run\n" name ms) stages;
  let app_pairs = candidate_pairs_per_app () in
  let max_pairs = List.fold_left (fun a (_, n) -> max a n) 0 app_pairs in
  let below_pool = max_pairs <= Flow.pool_threshold in
  if below_pool then
    Printf.printf
      "  note: candidate fan-out per app (max %d pairs) does not exceed the \
       pool threshold (%d);\n\
      \  parallel_speedup measures pool bookkeeping, not speedup.\n"
      max_pairs Flow.pool_threshold;
  let sm = sim_metrics () in
  Printf.printf
    "  IR interpreter: %.1f Msteps/s on the mpg profile run\n\
    \  co-sim: ISS %.1f MIPS on %s (%d instrs, %d superops, %d entries);\n\
    \  ISS %.1f MIPS on it with System's cache/memory hooks;\n\
    \  initial sim cold %.3f ms, memo-warm %.3f ms\n"
    sm.sm_interp_msteps sm.sm_iss_mips sm.sm_workload sm.sm_instrs sm.sm_blocks
    sm.sm_block_entries sm.sm_system_mips sm.sm_cold_ms sm.sm_warm_ms;
  let eval_us = cand_eval_us () in
  Printf.printf
    "  candidate evaluation: %.1f us per pair on gen:deep:1 (no memo)\n" eval_us;
  let seq_s, par_s, warm_s, seq_stats, warm_rate = flow_timing () in
  Printf.printf
    "  full suite: sequential %.3fs, parallel (jobs=%d) %.3fs (%.2fx), \
     memo-warm %.3fs (%.2fx)\n"
    seq_s Flow.default_jobs par_s (seq_s /. par_s) warm_s (seq_s /. warm_s);
  let points, rest_rate = f_sweep_cache () in
  Printf.printf "  E3 F-sweep candidate-cache hit rate per point:\n";
  List.iter
    (fun (f, h, m, rate) ->
      Printf.printf "    F=%-5.1f %4d hits %4d misses  %5.1f%%\n" f h m
        (100.0 *. rate))
    points;
  Printf.printf "  E3 F-sweep hit rate, 2nd..Nth points: %.1f%% (%s)\n"
    (100.0 *. rest_rate)
    (if rest_rate > 0.5 then "ok, > 50%" else "BELOW the 50% target");
  (* Where one cold flow run spends its time, stage by stage: a single
     sequential memo-cold digs16 run's [Flow.stage_times]. *)
  let pipeline_stage_s =
    Memo.reset ();
    let r =
      Flow.run
        ~options:{ Flow.default_options with Flow.jobs = 1 }
        ~name:"digs16"
        (Lp_apps.Digs.program ~width:16 ())
    in
    Memo.reset ();
    List.map
      (fun (st, dt) -> (Flow.stage_name st, dt))
      r.Flow.stage_times
  in
  Printf.printf "  cold flow by pipeline stage:%s\n"
    (String.concat ""
       (List.map
          (fun (name, s) -> Printf.sprintf " %s %.2fms" name (1e3 *. s))
          pipeline_stage_s));
  let doc =
    Json.Assoc
      [
        ("schema", Json.String "lowpart-bench-flow/1");
        ("jobs", Json.Int Flow.default_jobs);
        ( "apps",
          Json.List (List.map (fun (e : Apps.entry) -> Json.String e.name) Apps.all)
        );
        ( "stages",
          Json.List
            (List.map
               (fun (name, ms) ->
                 Json.Assoc
                   [ ("name", Json.String name); ("ms_per_run", Json.Float ms) ])
               stages) );
        ( "sim",
          Json.Assoc
            [
              ("interp_msteps", Json.Float sm.sm_interp_msteps);
              ("iss_mips", Json.Float sm.sm_iss_mips);
              ("system_mips", Json.Float sm.sm_system_mips);
              ("iss_workload", Json.String sm.sm_workload);
              ("iss_trace_instrs", Json.Int sm.sm_instrs);
              ("iss_superops", Json.Int sm.sm_blocks);
              ("iss_superop_entries", Json.Int sm.sm_block_entries);
              ("initial_cold_ms", Json.Float sm.sm_cold_ms);
              ("initial_warm_ms", Json.Float sm.sm_warm_ms);
            ] );
        ( "flow",
          Json.Assoc
            [
              ("sequential_s", Json.Float seq_s);
              ("parallel_s", Json.Float par_s);
              ("memo_warm_s", Json.Float warm_s);
              (* The paper suite's speedup is named for what it is:
                 six tiny apps below the pool threshold. The
                 above-threshold figure lives under the "corpus" key
                 (see corpus_bench) as parallel_speedup. *)
              ("parallel_speedup_paper", Json.Float (seq_s /. par_s));
              ("below_pool_threshold", Json.Bool below_pool);
              ("max_candidate_pairs", Json.Int max_pairs);
              ("memo_warm_speedup", Json.Float (seq_s /. warm_s));
              ("cand_eval_us", Json.Float eval_us);
              ( "stages",
                Json.Assoc
                  (List.map
                     (fun (name, s) -> (name, Json.Float s))
                     pipeline_stage_s) );
            ] );
        ( "cache",
          Json.Assoc
            [
              ( "cold",
                Json.Assoc
                  [
                    ("hits", Json.Int seq_stats.Memo.hits);
                    ("misses", Json.Int seq_stats.Memo.misses);
                    ("entries", Json.Int seq_stats.Memo.entries);
                  ] );
              ("warm_hit_rate", Json.Float warm_rate);
              ( "f_sweep",
                Json.Assoc
                  [
                    ( "points",
                      Json.List
                        (List.map
                           (fun (f, h, m, rate) ->
                             Json.Assoc
                               [
                                 ("f", Json.Float f);
                                 ("hits", Json.Int h);
                                 ("misses", Json.Int m);
                                 ("hit_rate", Json.Float rate);
                               ])
                           points) );
                    ("rest_hit_rate", Json.Float rest_rate);
                  ] );
            ] );
      ]
  in
  write_bench doc;
  Printf.printf "  wrote BENCH_flow.json\n%!";
  if smoke then begin
    (* Tier-1 guards ([dune runtest] runs speed --smoke). The block
       engine must leave the memo tier untouched — a warm initial
       report is a hash-table lookup, so its median must stay at ~0 ms
       — and must actually be exercised, amortizing per-block work over
       long superops: on at least one app the dynamic trace must run
       more than 4 instructions per block entry. *)
    if sm.sm_warm_ms > 0.05 then
      smoke_fail
        "memo-warm initial simulation\n\
        \  measured: %.3f ms (median of %d reps)\n\
        \  expected: <= 0.050 ms\n\
         a warm initial report is a hash-table lookup; anything slower \
         means the Memo initial-report tier regressed" sm.sm_warm_ms 9;
    let amortized (m : Lp_iss.Iss.t) =
      let _, entries = Lp_iss.Iss.block_stats m in
      let instrs = (Lp_iss.Iss.result m).Lp_iss.Iss.instr_count in
      entries > 0 && instrs > 4 * entries
    in
    let digs =
      let p = Lp_apps.Digs.program ~width:16 () in
      let prog, layout = Lp_compiler.Compiler.compile p in
      let data = Lp_compiler.Compiler.initial_data p layout in
      let m = Lp_iss.Iss.create prog Lp_iss.Iss.null_hooks in
      List.iter (fun (base, img) -> Lp_iss.Iss.load_data m base img) data;
      Lp_iss.Iss.run m;
      m
    in
    let workload_ok =
      sm.sm_block_entries > 0 && sm.sm_instrs > 4 * sm.sm_block_entries
    in
    if not (workload_ok || amortized digs) then
      smoke_fail
        "block engine underused\n\
        \  measured: %d instrs over %d superop entries on %s\n\
        \  expected: > 4 instrs per superop entry (on %s or digs16)\n\
         the basic-block engine must amortize per-block work over long \
         superops" sm.sm_instrs sm.sm_block_entries sm.sm_workload
        sm.sm_workload;
    (* Absolute gates from the shared table ([Lp_bench.Gates]) over the
       document just written — the same limits test_bench_schema locks,
       so a regression fails here with the full per-metric story. *)
    (match Lp_bench.Compare.check_doc doc with
    | [] -> ()
    | violations ->
        smoke_fail "gated metric out of bounds:\n  - %s"
          (String.concat "\n  - " violations));
    Printf.printf "  smoke assertions: memo-warm ~0 ms, block engine engaged\n"
  end;
  if not smoke then speed_bechamel ()

(* --- Bechamel micro-benchmarks of the flow's stages --- *)

and speed_bechamel () =
  section "B1-B6: Bechamel micro-benchmarks (OLS estimate per run)";
  let open Bechamel in
  let open Bechamel.Toolkit in
  (* Stage fixtures. *)
  let digs_small = Lp_apps.Digs.program ~width:16 () in
  let interp = Lp_ir.Interp.run digs_small in
  let chain = Lp_cluster.Cluster.decompose digs_small in
  let kernel = List.nth chain 1 in
  let segs = Lp_cluster.Cluster.segments kernel in
  let dfgs =
    List.filter_map
      (fun (s : Lp_cluster.Cluster.segment) ->
        Lp_ir.Dfg.of_segment s.Lp_cluster.Cluster.seg_exprs
          s.Lp_cluster.Cluster.seg_stmts)
      segs
  in
  let sched_one dfg =
    Option.get (Lp_sched.Sched.schedule dfg Lp_tech.Resource_set.medium_dsp)
  in
  let scheds = List.map sched_one dfgs in
  let seg_schedules =
    List.map (fun sched -> { Lp_bind.Bind.sched; times = 100 }) scheds
  in
  let pre = Lp_preselect.Preselect.create digs_small chain in
  let tests =
    Test.make_grouped ~name:"lowpart"
      [
        Test.make ~name:"B1 list-schedule (digs kernel)"
          (Staged.stage (fun () -> List.map sched_one dfgs));
        Test.make ~name:"B2 bind+utilisation"
          (Staged.stage (fun () -> Lp_bind.Bind.bind seg_schedules));
        Test.make ~name:"B3 preselect (Fig.3)"
          (Staged.stage (fun () ->
               Lp_preselect.Preselect.pre_select pre
                 ~profile:interp.Lp_ir.Interp.profile ~n_max:8));
        Test.make ~name:"B4 system sim (digs-16 initial)"
          (Staged.stage (fun () -> System.run digs_small));
        Test.make ~name:"B5 cache trace (10k seq reads)"
          (Staged.stage (fun () ->
               let c = Lp_cache.Cache.create Lp_cache.Cache.default_dcache in
               for i = 0 to 9_999 do
                 ignore (Lp_cache.Cache.read c (i * 4))
               done));
        Test.make ~name:"B6 full flow (digs-16)"
          (Staged.stage (fun () -> Flow.run ~name:"digs16" digs_small));
      ]
  in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let analyzed = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (t :: _) -> t
          | Some [] | None -> Float.nan
        in
        (name, ns) :: acc)
      analyzed []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (name, ns) ->
           [ name; Printf.sprintf "%.3f ms/run" (ns /. 1e6) ])
  in
  print_endline (Lp_report.Table.render ~header:[ "stage"; "time" ] rows)

(* --- B8: the partitioning service — per-request latency (cold cache,
   memo-warm, and disk-warm after a daemon restart onto the persistent
   cache), protocol overhead, and concurrent-client throughput. Results
   merge into BENCH_flow.json under a "service" key via Lp_json, so the
   speed suite's fields survive. --- *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let serve_bench ?(smoke = false) () =
  let module Server = Lp_service.Server in
  let module Client = Lp_service.Client in
  let module Proto = Lp_service.Protocol in
  section "B8: partitioning service -- request latency and throughput";
  let tmp = Filename.get_temp_dir_name () in
  let socket =
    Filename.concat tmp (Printf.sprintf "lp-bench-%d.sock" (Unix.getpid ()))
  in
  let cache =
    Filename.concat tmp (Printf.sprintf "lp-bench-%d.cache" (Unix.getpid ()))
  in
  rm_rf cache;
  let config =
    {
      Server.socket_path = Some socket;
      tcp_port = None;
      workers = Flow.default_jobs;
      queue_bound = 64;
      timeout_s = 300.0;
      cache_dir = Some cache;
      handle_signals = false;
    }
  in
  let with_server f =
    let t = Server.start config in
    let th = Thread.create Server.run t in
    Fun.protect
      ~finally:(fun () ->
        Server.stop t;
        Thread.join th;
        Lp_core.Memo.set_persist_dir None)
      f
  in
  let with_client f =
    let c = Client.connect (Client.Unix_socket socket) in
    Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)
  in
  let request c name =
    let resp =
      Client.rpc c (Proto.Run { app = name; options = Proto.no_options; stream = false })
    in
    match resp.Proto.payload with
    | Ok _ -> ()
    | Error (code, msg) ->
        failwith (Printf.sprintf "serve bench: %s: %s: %s" name code msg)
  in
  (* One generated workload rides along: the daemon must resolve
     gen:<class>:<seed> specs exactly like registry names. *)
  let apps =
    (if smoke then [ List.nth Apps.names 0; List.nth Apps.names 1 ]
     else Apps.names)
    @ [ "gen:paper:1" ]
  in
  let latency_pass c =
    List.map
      (fun name ->
        let (), dt = wall (fun () -> request c name) in
        (name, 1e3 *. dt))
      apps
  in
  let stats_disk_hits c =
    let resp = Client.rpc c Proto.Stats in
    match resp.Proto.payload with
    | Ok v ->
        Option.value ~default:0
          (Json.int_field
             (Option.value ~default:Json.Null (Json.member "memo" v))
             "disk_hits")
    | Error _ -> 0
  in
  let clients = if smoke then 2 else 4 in
  (* One request's wall time varies several-fold from pass to pass, so
     each phase is repeated and every figure is a median over passes. A
     cold pass starts from an empty cache dir and memo, a memo-warm pass
     repeats it on the same daemon, a disk-warm pass follows a daemon
     restart onto the cache the cold passes left. *)
  let passes = if smoke then 1 else 5 in
  let cold_warm_pass () =
    rm_rf cache;
    Memo.reset ();
    with_server (fun () ->
        with_client (fun c ->
            let cold = latency_pass c in
            (cold, latency_pass c)))
  in
  let cold, warm = List.split (List.init passes (fun _ -> cold_warm_pass ())) in
  (* Round trip and throughput on a daemon over the warm memo. *)
  let rtt_ms, thr =
    with_server (fun () ->
        let reps = if smoke then 10 else 50 in
        let (), dt =
          with_client (fun c ->
              wall (fun () ->
                  for _ = 1 to reps do
                    ignore (Client.rpc c Proto.Stats)
                  done))
        in
        let (), thr_dt =
          wall (fun () ->
              let threads =
                List.init clients (fun _ ->
                    Thread.create
                      (fun () -> with_client (fun c -> List.iter (request c) apps))
                      ())
              in
              List.iter Thread.join threads)
        in
        (1e3 *. dt /. float_of_int reps, (clients * List.length apps, thr_dt)))
  in
  let disk_pass () =
    Memo.reset ();
    with_server (fun () ->
        with_client (fun c ->
            let disk = latency_pass c in
            (disk, stats_disk_hits c)))
  in
  let disk, disk_hits = List.split (List.init passes (fun _ -> disk_pass ())) in
  let disk_hits = List.hd disk_hits in
  rm_rf cache;
  let median_of passes =
    List.map (fun name -> (name, median (List.map (List.assoc name) passes))) apps
  in
  let cold = median_of cold and warm = median_of warm and disk = median_of disk in
  let sum l = List.fold_left (fun a (_, ms) -> a +. ms) 0.0 l in
  let cold_s = sum cold /. 1e3
  and warm_s = sum warm /. 1e3
  and disk_s = sum disk /. 1e3 in
  Printf.printf "  per-request medians of %d pass(es):\n" passes;
  List.iter
    (fun name ->
      Printf.printf
        "  %-10s cold %8.1f ms   memo-warm %7.2f ms   disk-warm %8.1f ms\n"
        name
        (List.assoc name cold)
        (List.assoc name warm)
        (List.assoc name disk))
    apps;
  Printf.printf
    "  totals: cold %.2fs, memo-warm %.3fs (%.1fx), disk-warm %.3fs (%.1fx); \
     restart disk hits %d\n"
    cold_s warm_s (cold_s /. warm_s) disk_s (cold_s /. disk_s) disk_hits;
  let n_req, thr_dt = thr in
  Printf.printf
    "  stats round-trip %.3f ms; %d clients: %d warm requests in %.2fs \
     (%.1f req/s)\n"
    rtt_ms clients n_req thr_dt
    (float_of_int n_req /. thr_dt);
  let per_app =
    Json.List
      (List.map
         (fun name ->
           Json.Assoc
             [
               ("app", Json.String name);
               ("cold_ms", Json.Float (List.assoc name cold));
               ("warm_ms", Json.Float (List.assoc name warm));
               ("disk_warm_ms", Json.Float (List.assoc name disk));
             ])
         apps)
  in
  let service =
    Json.Assoc
      [
        ("schema", Json.String "lowpart-bench-service/1");
        ("workers", Json.Int Flow.default_jobs);
        ("smoke", Json.Bool smoke);
        ("samples", Json.Int passes);
        ("requests", per_app);
        ( "totals",
          Json.Assoc
            [
              ("cold_s", Json.Float cold_s);
              ("warm_s", Json.Float warm_s);
              ("disk_warm_s", Json.Float disk_s);
              ("warm_speedup", Json.Float (cold_s /. warm_s));
              ("disk_warm_speedup", Json.Float (cold_s /. disk_s));
            ] );
        ("stats_rtt_ms", Json.Float rtt_ms);
        ( "throughput",
          Json.Assoc
            [
              ("clients", Json.Int clients);
              ("requests", Json.Int n_req);
              ("elapsed_s", Json.Float thr_dt);
              ("req_per_s", Json.Float (float_of_int n_req /. thr_dt));
            ] );
        ("restart_disk_hits", Json.Int disk_hits);
      ]
  in
  merge_bench_key "service" service

(* --- B9: the design-space explorer — cold vs memo-warm sweep latency,
   points/s, and how many evaluations each strategy needs before it has
   seen its best point. Results merge into BENCH_flow.json under an
   "explore" key, like the service bench. --- *)

let explore_bench ?(smoke = false) () =
  let module E = Lp_explore.Explore in
  section "B9: design-space explorer -- sweep latency and strategy efficiency";
  (* As in the service bench, a generated workload joins the sweep. *)
  let apps =
    (if smoke then [ List.nth Apps.names 0; List.nth Apps.names 1 ]
     else Apps.names)
    @ [ "gen:paper:1" ]
  in
  let space =
    if smoke then
      {
        E.default_space with
        E.f_values = [ 1.0; 8.0 ];
        max_cells_values = [ 8_000; 16_000 ];
      }
    else E.default_space
  in
  let grid_size = List.length (E.grid_points space) in
  let jobs = Flow.default_jobs in
  (* Evaluations before (and including) the first point that reaches
     the log's best energy: "how much of the sweep bought the win". *)
  let points_to_best (r : E.result) =
    let best =
      List.fold_left
        (fun acc (o : E.outcome) -> Float.min acc o.E.metrics.E.energy_j)
        infinity r.E.log
    in
    let rec go i = function
      | [] -> i
      | (o : E.outcome) :: rest ->
          if o.E.metrics.E.energy_j <= best then i + 1 else go (i + 1) rest
    in
    go 0 r.E.log
  in
  let per_app =
    List.map
      (fun name ->
        let e = Option.get (Apps.find name) in
        let program = e.Apps.build () in
        Memo.reset ();
        let cold_r, cold_s = wall (fun () -> E.run ~jobs ~space ~name program) in
        let before = Memo.stats () in
        let _, warm_s = wall (fun () -> E.run ~jobs ~space ~name program) in
        let after = Memo.stats () in
        let warm_new_misses = after.Memo.misses - before.Memo.misses in
        let anneal_r =
          E.run
            ~strategy:(E.Strategy.anneal ~budget:grid_size ())
            ~seed:0 ~jobs ~space ~name program
        in
        Printf.printf
          "  %-10s %2d points: cold %7.1f ms (%6.0f pts/s), memo-warm %6.1f \
           ms (%6.0f pts/s, %d new misses); to-best: grid %d, anneal %d\n"
          name grid_size (1e3 *. cold_s)
          (float_of_int grid_size /. cold_s)
          (1e3 *. warm_s)
          (float_of_int grid_size /. warm_s)
          warm_new_misses (points_to_best cold_r) (points_to_best anneal_r);
        ( name,
          Json.Assoc
            [
              ("app", Json.String name);
              ("points", Json.Int grid_size);
              ("cold_s", Json.Float cold_s);
              ("warm_s", Json.Float warm_s);
              ( "cold_points_per_s",
                Json.Float (float_of_int grid_size /. cold_s) );
              ( "warm_points_per_s",
                Json.Float (float_of_int grid_size /. warm_s) );
              ("warm_new_misses", Json.Int warm_new_misses);
              ("frontier_size", Json.Int (List.length cold_r.E.frontier));
              ("grid_points_to_best", Json.Int (points_to_best cold_r));
              ( "anneal",
                Json.Assoc
                  [
                    ("strategy", Json.String anneal_r.E.strategy);
                    ("evaluated", Json.Int anneal_r.E.evaluated);
                    ("points_to_best", Json.Int (points_to_best anneal_r));
                    ( "frontier_size",
                      Json.Int (List.length anneal_r.E.frontier) );
                  ] );
            ],
          (cold_s, warm_s) ))
      apps
  in
  let cold_total = List.fold_left (fun a (_, _, (c, _)) -> a +. c) 0.0 per_app
  and warm_total = List.fold_left (fun a (_, _, (_, w)) -> a +. w) 0.0 per_app in
  Printf.printf
    "  totals: cold %.2fs, memo-warm %.3fs (%.1fx) over %d apps x %d points\n"
    cold_total warm_total
    (cold_total /. warm_total)
    (List.length apps) grid_size;
  (* Joint partition x platform sweep: every named platform preset as
     one axis alternative on one app. The headline number is the energy
     gain of the best platform's best point over the default platform's
     best point — the cross-platform win the explorer exists to find. *)
  let module P = Lp_tech.Platform in
  let psweep_app = List.hd apps in
  let psweep_space =
    {
      (E.space_of_options Flow.default_options) with
      E.f_values = [ 1.0; 8.0 ];
      max_cells_values = [ 8_000; 16_000 ];
      platform_choices = E.platform_axis P.presets;
    }
  in
  let psweep_points = List.length (E.grid_points psweep_space) in
  let psweep_r, psweep_s =
    let e = Option.get (Apps.find psweep_app) in
    let program = e.Apps.build () in
    Memo.reset ();
    wall (fun () -> E.run ~jobs ~space:psweep_space ~name:psweep_app program)
  in
  let default_name = P.default.P.name in
  let min_energy_where pred =
    List.fold_left
      (fun acc (o : E.outcome) ->
        if pred o then Float.min acc o.E.metrics.E.energy_j else acc)
      infinity psweep_r.E.log
  in
  let default_energy =
    min_energy_where (fun o -> String.equal o.E.point.E.platform default_name)
  in
  let best_platform, best_energy =
    List.fold_left
      (fun ((_, be) as acc) (o : E.outcome) ->
        if o.E.metrics.E.energy_j < be then
          (o.E.point.E.platform, o.E.metrics.E.energy_j)
        else acc)
      (default_name, infinity) psweep_r.E.log
  in
  let energy_gain = default_energy /. best_energy in
  Printf.printf
    "  platform sweep (%s, %d platforms x %d points): %.1f ms; best %s \
     %.4g J vs default %s %.4g J (%.2fx)\n"
    psweep_app (List.length P.presets) psweep_points (1e3 *. psweep_s)
    best_platform best_energy default_name default_energy energy_gain;
  let platform_sweep =
    Json.Assoc
      [
        ("app", Json.String psweep_app);
        ( "platforms",
          Json.List (List.map (fun n -> Json.String n) P.names) );
        ("points", Json.Int psweep_points);
        ("sweep_s", Json.Float psweep_s);
        ("frontier_size", Json.Int (List.length psweep_r.E.frontier));
        ("best_platform", Json.String best_platform);
        ("best_energy_j", Json.Float best_energy);
        ("default_platform", Json.String default_name);
        ("default_energy_j", Json.Float default_energy);
        ("energy_gain", Json.Float energy_gain);
        ( "non_default_wins",
          Json.Bool
            (best_energy < default_energy
            && not (String.equal best_platform default_name)) );
      ]
  in
  let explore =
    Json.Assoc
      [
        ("schema", Json.String "lowpart-bench-explore/1");
        ("jobs", Json.Int jobs);
        ("smoke", Json.Bool smoke);
        ("points", Json.Int grid_size);
        ("apps", Json.List (List.map (fun (_, j, _) -> j) per_app));
        ("platform_sweep", platform_sweep);
        ( "totals",
          Json.Assoc
            [
              ("cold_s", Json.Float cold_total);
              ("warm_s", Json.Float warm_total);
              ("warm_speedup", Json.Float (cold_total /. warm_total));
            ] );
      ]
  in
  merge_bench_key "explore" explore

(* --- B10: the generator corpus — manifest verification, per-task flow
   benches on workloads that actually exceed the pool threshold, and a
   small explorer pass on a generated app. Modelled on the RLM harness
   shape: every invocation gets a run id and writes one log per task
   under .lowpart-bench/<run_id>/task_logs/. Results merge into
   BENCH_flow.json under a "corpus" key. --- *)

let corpus_run_id () =
  let t = Unix.localtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d%02d%02d-%02d%02d%02d-%d" (t.Unix.tm_year + 1900)
    (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min
    t.Unix.tm_sec (Unix.getpid ())

let corpus_manifest_path () =
  if Sys.file_exists "corpus.json" then "corpus.json" else "bench/corpus.json"

(* Regenerate bench/corpus.json from Corpus.default_pairs (maintenance:
   run after deliberately changing the generator, then commit). *)
let corpus_write () =
  let module Corpus = Lp_bench.Corpus in
  let module Gen = Lp_gen.Gen in
  section "B10: corpus manifest regeneration";
  let path = corpus_manifest_path () in
  let entries =
    List.map
      (fun (cls, seed) ->
        let spec = Option.get (Gen.find_class cls) in
        let e = Corpus.measure spec ~seed in
        Printf.printf "  %-14s fp %s  stmts %6d  trace %8d instrs\n%!"
          e.Corpus.spec e.Corpus.fingerprint e.Corpus.stmts
          e.Corpus.trace_instrs;
        e)
      Corpus.default_pairs
  in
  Corpus.save path entries;
  Printf.printf "  wrote %s (%d entries)\n%!" path (List.length entries)

(* Samples per side (seq and par) of each corpus task; odd, so the
   median is a sample. *)
let corpus_samples = 5

let corpus_bench ?(smoke = false) () =
  let module Corpus = Lp_bench.Corpus in
  let module Gen = Lp_gen.Gen in
  section "B10: generator corpus -- manifest check and above-threshold flows";
  let manifest = corpus_manifest_path () in
  let entries =
    match Corpus.load manifest with
    | Ok es -> es
    | Error msg -> smoke_fail "corpus manifest %s unreadable:\n  %s" manifest msg
  in
  (match Corpus.verify entries with
  | [] ->
      Printf.printf
        "  manifest %s: %d entries verified (fingerprint + trace length)\n%!"
        manifest (List.length entries)
  | drift ->
      smoke_fail
        "corpus manifest drift (the generator no longer reproduces the \
         tracked workloads;\n\
         if the change is intentional, regenerate with `bench corpus \
         --write` and commit):\n\
        \  - %s"
        (String.concat "\n  - " drift));
  let run_id = corpus_run_id () in
  let log_dir = Filename.concat (Filename.concat ".lowpart-bench" run_id) "task_logs" in
  Lp_core.Store.mkdir_p log_dir;
  let tasks =
    if smoke then [ "gen:paper:1"; "gen:deep:1" ]
    else
      [
        "gen:paper:1";
        "gen:paper:2";
        "gen:wide:1";
        "gen:deep:1";
        "gen:large:1";
        "gen:stress:1";
      ]
  in
  let jobs = Flow.default_jobs in
  let host_cpus = Domain.recommended_domain_count () in
  let bench_task name =
    let spec, seed =
      match Gen.parse_name name with
      | Ok (spec, seed) -> (spec, seed)
      | Error msg -> smoke_fail "corpus task %s: %s" name msg
    in
    let program = Gen.generate spec ~seed in
    (* n_max = cluster count: pre-selection keeps everything, so the
       candidate fan-out is the class's full (clusters x resource sets)
       matrix — the whole point of the above-threshold classes. *)
    let options =
      { Flow.default_options with Flow.jobs = 1; n_max = spec.Gen.clusters }
    in
    (* The parallel figure is the default-options run: what a user gets
       with no tuning. On a single-CPU host default_jobs is 1, the flow
       never fans out, and the recorded "speedup" is honest noise around
       1.0 — the corpus block carries jobs/host_cpus so the comparator
       knows which floor applies. One wall-clock sample per side swung
       the ratio between 0.2 and 1.5 on an unchanged tree, so each side
       is sampled [corpus_samples] times, seq and par alternating (and
       alternating which goes first), and the medians are compared. The
       minor collections of each run are logged with it: every one stops
       all domains, the pool's worker too. *)
    let par_options = { options with Flow.jobs } in
    let sample options =
      Memo.reset ();
      let gc0 = (Gc.quick_stat ()).Gc.minor_collections in
      let r, dt = wall (fun () -> Flow.run ~options ~name program) in
      (r, dt, (Gc.quick_stat ()).Gc.minor_collections - gc0)
    in
    let rounds =
      List.init corpus_samples (fun i ->
          if i mod 2 = 0 then
            let s = sample options in
            (s, sample par_options)
          else
            let p = sample par_options in
            (sample options, p))
    in
    let r_seq, _, _ = fst (List.hd rounds) in
    let pairs =
      List.length r_seq.Flow.preselected * List.length options.Flow.resource_sets
    in
    let above = pairs > Flow.pool_threshold in
    let med side f = median (List.map (fun r -> f (side r)) rounds) in
    let seq_s = med fst (fun (_, dt, _) -> dt)
    and par_s = med snd (fun (_, dt, _) -> dt) in
    let seq_gcs = med fst (fun (_, _, g) -> float_of_int g)
    and par_gcs = med snd (fun (_, _, g) -> float_of_int g) in
    let log_path = Filename.concat log_dir (String.map (function ':' -> '_' | c -> c) name ^ ".log") in
    Out_channel.with_open_text log_path (fun oc ->
        Printf.fprintf oc "task %s (run %s)\n" name run_id;
        Printf.fprintf oc "clusters %d  preselected %d  pairs %d (threshold %d)\n"
          (List.length r_seq.Flow.chain)
          (List.length r_seq.Flow.preselected)
          pairs Flow.pool_threshold;
        Printf.fprintf oc
          "candidates %d  selected %d  energy saving %.1f%%  cells %d\n"
          (List.length r_seq.Flow.candidates)
          (List.length r_seq.Flow.selected)
          (100.0 *. r_seq.Flow.energy_saving)
          r_seq.Flow.total_cells;
        Printf.fprintf oc
          "median of %d: seq %.3f ms  par(jobs=%d) %.3f ms  speedup %.3f\n"
          corpus_samples (1e3 *. seq_s) jobs (1e3 *. par_s) (seq_s /. par_s);
        List.iteri
          (fun i ((_, s, sg), (_, p, pg)) ->
            Printf.fprintf oc
              "  round %d: seq %.3f ms (%d minor GCs)  par %.3f ms (%d minor \
               GCs)\n"
              i (1e3 *. s) sg (1e3 *. p) pg)
          rounds;
        List.iter
          (fun (st, dt) ->
            Printf.fprintf oc "  stage %-22s %8.3f ms\n" (Flow.stage_name st)
              (1e3 *. dt))
          r_seq.Flow.stage_times);
    Printf.printf
      "  %-14s %4d pairs%s  seq %8.1f ms  par %8.1f ms  speedup %.2f  minor \
       GCs %.0f/%.0f  sav %5.1f%%\n%!"
      name pairs
      (if above then " (par)" else "      ")
      (1e3 *. seq_s) (1e3 *. par_s) (seq_s /. par_s) seq_gcs par_gcs
      (100.0 *. r_seq.Flow.energy_saving);
    ( name,
      Json.Assoc
        [
          ("spec", Json.String name);
          ("pairs", Json.Int pairs);
          ("above_pool_threshold", Json.Bool above);
          ("seq_ms", Json.Float (1e3 *. seq_s));
          ("par_ms", Json.Float (1e3 *. par_s));
          ("speedup", Json.Float (seq_s /. par_s));
          ("samples", Json.Int corpus_samples);
          ("seq_minor_gcs", Json.Float seq_gcs);
          ("par_minor_gcs", Json.Float par_gcs);
          ("energy_saving", Json.Float r_seq.Flow.energy_saving);
          ("selected", Json.Int (List.length r_seq.Flow.selected));
        ],
      (seq_s, par_s, above) )
  in
  let rows = List.map bench_task tasks in
  (* The headline corpus speedup: the above-threshold tasks only — the
     paper apps' bookkeeping-dominated figure is exactly what this key
     exists to not be diluted by — as the ratio of their summed seq and
     par medians. *)
  let above_seq, above_par =
    List.fold_left
      (fun (s, p) (_, _, (seq_s, par_s, above)) ->
        if above then (s +. seq_s, p +. par_s) else (s, p))
      (0.0, 0.0) rows
  in
  let parallel_speedup = if above_par > 0.0 then above_seq /. above_par else 1.0 in
  let total_flow_ms =
    1e3 *. List.fold_left (fun a (_, _, (s, p, _)) -> a +. s +. p) 0.0 rows
  in
  if jobs > 1 && parallel_speedup <= 1.0 then
    smoke_fail
      "corpus parallel speedup\n\
      \  measured: %.3f over the above-threshold tasks (jobs=%d)\n\
      \  expected: > 1.0 when the flow actually fans out\n\
       the pool path lost to the sequential path on a multi-CPU host"
      parallel_speedup jobs;
  Printf.printf
    "  corpus parallel speedup (above-threshold tasks): %.2f (jobs=%d, host \
     cpus %d)%s\n"
    parallel_speedup jobs host_cpus
    (if jobs = 1 then " -- single-CPU host, sequential either way" else "");
  (* A generated app through the explorer, cold vs memo-warm. *)
  let module E = Lp_explore.Explore in
  let explore_json =
    let name = "gen:paper:1" in
    let spec, seed = match Gen.parse_name name with Ok p -> p | Error _ -> assert false in
    let program = Gen.generate spec ~seed in
    let space =
      { E.default_space with E.f_values = [ 1.0; 8.0 ]; max_cells_values = [ 8_000; 16_000 ] }
    in
    Memo.reset ();
    let _, cold_s = wall (fun () -> E.run ~jobs ~space ~name program) in
    let _, warm_s = wall (fun () -> E.run ~jobs ~space ~name program) in
    Printf.printf "  explore %s: %d points cold %.1f ms, memo-warm %.1f ms\n%!"
      name
      (List.length (E.grid_points space))
      (1e3 *. cold_s) (1e3 *. warm_s);
    Json.Assoc
      [
        ("app", Json.String name);
        ("points", Json.Int (List.length (E.grid_points space)));
        ("cold_s", Json.Float cold_s);
        ("warm_s", Json.Float warm_s);
      ]
  in
  Memo.reset ();
  let corpus =
    Json.Assoc
      [
        ("schema", Json.String "lowpart-bench-corpus/1");
        ("run_id", Json.String run_id);
        ("manifest", Json.String manifest);
        ("manifest_entries", Json.Int (List.length entries));
        ("jobs", Json.Int jobs);
        ("host_cpus", Json.Int host_cpus);
        ("single_cpu_host", Json.Bool (jobs = 1));
        ("smoke", Json.Bool smoke);
        ("task_log_dir", Json.String log_dir);
        ("tasks", Json.List (List.map (fun (_, j, _) -> j) rows));
        ("parallel_speedup", Json.Float parallel_speedup);
        ("total_flow_ms", Json.Float total_flow_ms);
        ("explore", explore_json);
      ]
  in
  merge_bench_key "corpus" corpus

(* --- B11: A/B comparator over two BENCH_flow.json files. --- *)

let read_doc cmd path =
  match Lp_json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok doc -> doc
  | Error msg ->
      Printf.eprintf "bench %s: %s: %s\n" cmd path msg;
      exit 2
  | exception Sys_error msg ->
      Printf.eprintf "bench %s: %s\n" cmd msg;
      exit 2

let compare_files old_path new_path =
  let module Compare = Lp_bench.Compare in
  section (Printf.sprintf "B11: bench compare %s -> %s" old_path new_path);
  let old_doc = read_doc "compare" old_path in
  let new_doc = read_doc "compare" new_path in
  let report = Compare.diff ~old_doc ~new_doc in
  print_string (Compare.render report);
  if report.Compare.failures <> [] then exit 1

(* The absolute gates of one document: what tier-1 checks of the merged
   smoke document. A smoke run has no like-for-like reference to be
   A/B-compared with, and [compare] refuses unlike pairs. *)
let check_file path =
  section (Printf.sprintf "B11: bench check %s" path);
  match Lp_bench.Compare.check_doc (read_doc "check" path) with
  | [] -> print_string "all absolute gates pass\n"
  | fs ->
      List.iter (fun f -> Printf.printf "  - %s\n" f) fs;
      exit 1

let usage () =
  print_endline
    "usage: main.exe \
     [table1|fig6|hwcost|ablation-f|ablation-rs|ablation-nmax|cache-sweep|ablation-opt|speed \
     [--smoke]|serve [--smoke]|explore [--smoke]|corpus \
     [--smoke|--write]|compare OLD.json NEW.json|check FILE.json|all]";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let run_default () =
    table1 ();
    fig6 ();
    hwcost ()
  in
  match args with
  | [] -> run_default ()
  | [ "table1" ] -> table1 ()
  | [ "fig6" ] -> fig6 ()
  | [ "hwcost" ] -> hwcost ()
  | [ "ablation-f" ] -> ablation_f ()
  | [ "ablation-rs" ] -> ablation_rs ()
  | [ "ablation-nmax" ] -> ablation_nmax ()
  | [ "cache-sweep" ] -> cache_sweep ()
  | [ "ablation-opt" ] -> ablation_opt ()
  | [ "ablation-sched" ] -> ablation_sched ()
  | [ "ablation-vdd" ] -> ablation_vdd ()
  | [ "ablation-unroll" ] -> ablation_unroll ()
  | [ "future-work" ] -> future_work ()
  | [ "speed" ] -> speed ()
  | [ "speed"; "--smoke" ] -> speed ~smoke:true ()
  | [ "serve" ] -> serve_bench ()
  | [ "serve"; "--smoke" ] -> serve_bench ~smoke:true ()
  | [ "explore" ] -> explore_bench ()
  | [ "explore"; "--smoke" ] -> explore_bench ~smoke:true ()
  | [ "corpus" ] -> corpus_bench ()
  | [ "corpus"; "--smoke" ] -> corpus_bench ~smoke:true ()
  | [ "corpus"; "--write" ] -> corpus_write ()
  | [ "compare"; old_path; new_path ] -> compare_files old_path new_path
  | [ "check"; path ] -> check_file path
  | [ "all" ] ->
      run_default ();
      ablation_f ();
      ablation_rs ();
      ablation_nmax ();
      cache_sweep ();
      ablation_opt ();
      ablation_sched ();
      ablation_vdd ();
      ablation_unroll ();
      future_work ();
      speed ();
      serve_bench ();
      explore_bench ();
      corpus_bench ()
  | _ -> usage ()
