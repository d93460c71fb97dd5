(* The A/B comparator and its gate table: metric extraction from a
   BENCH document, regression arithmetic in both directions, the
   conditional corpus-speedup floor, and the corpus manifest's JSON
   round-trip. These run on synthetic documents — no benchmarking, so
   the suite stays milliseconds. *)

module J = Lp_json
module Compare = Lp_bench.Compare
module Gates = Lp_bench.Gates
module Corpus = Lp_bench.Corpus

let parse s =
  match J.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "test document does not parse: %s" e

let doc ~mips ~speedup_paper ~corpus_jobs ~corpus_speedup =
  parse
    (Printf.sprintf
       {|{"schema":"lowpart-bench-flow/1",
          "sim":{"iss_mips":%g},
          "stages":[{"name":"system-sim","ms_per_run":4.0},
                    {"name":"full-flow-seq","ms_per_run":20.0}],
          "flow":{"parallel_speedup_paper":%g,"memo_warm_speedup":2.0},
          "corpus":{"jobs":%d,"parallel_speedup":%g,"total_flow_ms":300.0}}|}
       mips speedup_paper corpus_jobs corpus_speedup)

let healthy = doc ~mips:250.0 ~speedup_paper:1.1 ~corpus_jobs:1 ~corpus_speedup:1.02

(* --- metric extraction -------------------------------------------- *)

let test_metrics () =
  let m = Compare.metrics_of_doc healthy in
  let get k = List.assoc k m in
  Alcotest.(check (float 1e-9)) "iss_mips" 250.0 (get "iss_mips");
  Alcotest.(check (float 1e-9)) "system_sim_ms" 4.0 (get "system_sim_ms");
  Alcotest.(check (float 1e-9))
    "parallel_speedup_paper" 1.1
    (get "parallel_speedup_paper");
  Alcotest.(check (float 1e-9))
    "parallel_speedup_corpus" 1.02
    (get "parallel_speedup_corpus");
  Alcotest.(check (float 1e-9)) "corpus_flow_ms" 300.0 (get "corpus_flow_ms");
  (* pre-corpus schema: the old flow.parallel_speedup key still reads
     as the paper metric, so old committed files remain comparable. *)
  let legacy =
    parse {|{"flow":{"parallel_speedup":1.3}}|} |> Compare.metrics_of_doc
  in
  Alcotest.(check (float 1e-9))
    "legacy parallel_speedup key" 1.3
    (List.assoc "parallel_speedup_paper" legacy);
  (* absent blocks simply yield no metric *)
  Alcotest.(check bool)
    "no corpus block, no corpus metric" false
    (List.mem_assoc "parallel_speedup_corpus"
       (Compare.metrics_of_doc (parse {|{"flow":{"memo_warm_speedup":2.0}}|})))

(* --- absolute gates ----------------------------------------------- *)

let test_absolute_gates () =
  Alcotest.(check (list string)) "healthy doc passes" []
    (Compare.check_doc healthy);
  let slow = doc ~mips:50.0 ~speedup_paper:1.1 ~corpus_jobs:1 ~corpus_speedup:1.0 in
  (match Compare.check_doc slow with
  | [ msg ] ->
      Alcotest.(check bool)
        "violation names iss_mips" true
        (String.length msg > 0
        && String.sub msg 0 8 = "iss_mips")
  | other ->
      Alcotest.failf "expected one iss_mips violation, got %d"
        (List.length other));
  (* conditional corpus floor: 0.5 is fine on a single-CPU host... *)
  let single = doc ~mips:250.0 ~speedup_paper:1.0 ~corpus_jobs:1 ~corpus_speedup:0.6 in
  Alcotest.(check (list string)) "0.6 passes at jobs=1" []
    (Compare.check_doc single);
  (* ...but the same number fails when the run recorded jobs > 1. *)
  let multi = doc ~mips:250.0 ~speedup_paper:1.0 ~corpus_jobs:4 ~corpus_speedup:0.6 in
  Alcotest.(check bool) "0.6 fails at jobs=4" true
    (Compare.check_doc multi <> []);
  let multi_ok = doc ~mips:250.0 ~speedup_paper:1.0 ~corpus_jobs:4 ~corpus_speedup:1.4 in
  Alcotest.(check (list string)) "1.4 passes at jobs=4" []
    (Compare.check_doc multi_ok);
  Alcotest.(check (float 1e-9)) "floor at jobs=1" 0.5
    (Gates.corpus_speedup_floor ~jobs:1);
  Alcotest.(check (float 1e-9)) "floor at jobs=8" 1.0
    (Gates.corpus_speedup_floor ~jobs:8);
  Alcotest.(check (float 1e-9)) "shared mips floor" Gates.iss_mips_floor 200.0

(* --- A/B regression ----------------------------------------------- *)

let test_diff () =
  let old_doc = healthy in
  (* within allowances: slightly slower, still passing *)
  let ok = doc ~mips:240.0 ~speedup_paper:1.05 ~corpus_jobs:1 ~corpus_speedup:1.0 in
  let r = Compare.diff ~old_doc ~new_doc:ok in
  Alcotest.(check (list string)) "small drift passes" [] r.Compare.failures;
  (* a floor metric collapsing past max_regress fires *)
  let bad = doc ~mips:110.0 ~speedup_paper:1.05 ~corpus_jobs:1 ~corpus_speedup:1.0 in
  let r = Compare.diff ~old_doc ~new_doc:bad in
  Alcotest.(check bool) "mips collapse fires (A/B + absolute)" true
    (List.length r.Compare.failures >= 1);
  (* losing a gated metric entirely is a failure... *)
  let gone = parse {|{"sim":{"iss_mips":250.0}}|} in
  let r = Compare.diff ~old_doc ~new_doc:gone in
  Alcotest.(check bool) "dropped gated metric fires" true
    (List.exists
       (fun f ->
         String.length f > 0 && String.index_opt f ':' <> None
         && String.sub f 0 (String.index f ':') = "parallel_speedup_corpus")
       r.Compare.failures);
  (* ...but a metric that only the NEW side has never fires. *)
  let old_small = parse {|{"sim":{"iss_mips":250.0}}|} in
  let r = Compare.diff ~old_doc:old_small ~new_doc:healthy in
  Alcotest.(check (list string)) "new-only metrics pass" []
    r.Compare.failures;
  (* render never raises and mentions every metric *)
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let rendered = Compare.render (Compare.diff ~old_doc ~new_doc:healthy) in
  Alcotest.(check bool) "render mentions iss_mips" true
    (contains rendered "iss_mips");
  Alcotest.(check bool) "clean report says so" true
    (contains rendered "all gates pass")

(* --- unlike pairs ---------------------------------------------------- *)

(* [healthy] with a bench profile and a host CPU count in its corpus and
   service blocks. *)
let tagged ?(mips = 250.0) ~smoke ~cpus () =
  parse
    (Printf.sprintf
       {|{"sim":{"iss_mips":%g},
          "corpus":{"jobs":1,"parallel_speedup":1.02,"total_flow_ms":300.0,
                    "host_cpus":%d,"smoke":%b},
          "service":{"smoke":%b,"totals":{"warm_speedup":3.0}}}|}
       mips cpus smoke smoke)

let test_unlike () =
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let full = tagged ~smoke:false ~cpus:2 () in
  Alcotest.(check (list string)) "like runs are compared" []
    (Compare.diff ~old_doc:full ~new_doc:(tagged ~smoke:false ~cpus:2 ()))
      .Compare.failures;
  (* A smoke run against a full one: one failure per block that differs,
     each naming its field, and no gate is applied. *)
  let r =
    Compare.diff ~old_doc:full ~new_doc:(tagged ~mips:50.0 ~smoke:true ~cpus:2 ())
  in
  Alcotest.(check int) "smoke differs in two blocks" 2
    (List.length r.Compare.failures);
  Alcotest.(check bool) "names corpus.smoke" true
    (List.exists (fun f -> contains f "corpus.smoke") r.Compare.failures);
  Alcotest.(check bool) "names service.smoke" true
    (List.exists (fun f -> contains f "service.smoke") r.Compare.failures);
  Alcotest.(check bool) "the collapsed iss_mips is not gated" false
    (List.exists (fun f -> contains f "iss_mips") r.Compare.failures);
  Alcotest.(check bool) "no row fails" true
    (List.for_all (fun row -> row.Compare.failure = None) r.Compare.rows);
  Alcotest.(check bool) "deltas still listed" true
    (List.exists (fun row -> row.Compare.metric = "iss_mips") r.Compare.rows);
  (* Another host: the CPU count alone refuses the pair. *)
  (match (Compare.diff ~old_doc:full ~new_doc:(tagged ~smoke:false ~cpus:4 ())).Compare.failures with
  | [ f ] ->
      Alcotest.(check bool) "names corpus.host_cpus" true
        (contains f "corpus.host_cpus" && contains f "old 2" && contains f "new 4")
  | fs -> Alcotest.failf "expected one host_cpus mismatch, got %d" (List.length fs));
  (* A flag only one side carries is no mismatch. *)
  Alcotest.(check (list string)) "one-sided flag is ignored" []
    (Compare.diff ~old_doc:full ~new_doc:healthy).Compare.failures;
  Alcotest.(check bool) "top-level flag is checked too" true
    ((Compare.diff ~old_doc:(parse {|{"smoke":false}|})
        ~new_doc:(parse {|{"smoke":true}|})).Compare.failures
    <> [])

(* --- corpus manifest round-trip ----------------------------------- *)

let test_corpus_roundtrip () =
  let e =
    {
      Corpus.spec = "gen:paper:1";
      class_name = "paper";
      seed = 1;
      fingerprint = "deadbeef";
      stmts = 81;
      trace_instrs = 39031;
    }
  in
  (match Corpus.of_json (Corpus.manifest_json [ e; { e with seed = 2; spec = "gen:paper:2" } ]) with
  | Ok [ a; b ] ->
      Alcotest.(check string) "spec" "gen:paper:1" a.Corpus.spec;
      Alcotest.(check string) "fingerprint" "deadbeef" a.Corpus.fingerprint;
      Alcotest.(check int) "trace" 39031 a.Corpus.trace_instrs;
      Alcotest.(check int) "seed 2" 2 b.Corpus.seed
  | Ok _ -> Alcotest.fail "wrong entry count"
  | Error msg -> Alcotest.failf "round-trip failed: %s" msg);
  (match Corpus.of_json (parse {|{"schema":"nope/9","entries":[]}|}) with
  | Ok _ -> Alcotest.fail "unknown schema must not load"
  | Error _ -> ());
  match Corpus.of_json (parse {|{"entries":[]}|}) with
  | Ok _ -> Alcotest.fail "missing schema must not load"
  | Error _ -> ()

let () =
  Alcotest.run "bench_compare"
    [
      ( "comparator",
        [
          Alcotest.test_case "metric extraction" `Quick test_metrics;
          Alcotest.test_case "absolute gates" `Quick test_absolute_gates;
          Alcotest.test_case "A/B regression" `Quick test_diff;
          Alcotest.test_case "unlike pairs refused" `Quick test_unlike;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "manifest round-trip" `Quick
            test_corpus_roundtrip;
        ] );
    ]
