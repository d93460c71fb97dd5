(* Whole-system co-simulation: the initial design's accounting, the
   Acall handshake (mailbox roundtrip, coherence flush, streaming vs
   buffering), and output equivalence between partitioned and
   unpartitioned runs. *)

module System = Lp_system.System
module Cache = Lp_cache.Cache
module Interp = Lp_ir.Interp

(* Producer loop (c0) -> consumer kernel (c1, call-free) -> report. *)
let pipeline =
  let open Lp_ir.Builder in
  program
    ~arrays:[ array "a" 32; array "b" 32 ]
    [
      func "main" ~params:[] ~locals:[ "s"; "t" ]
        [
          "s" := int 7;
          for_ "i" (int 0) (int 32) [ store "a" (var "i") (var "i" * int 3) ];
          for_ "i" (int 0) (int 32)
            [
              "t" := var "t" + load "a" (var "i") + var "s";
              store "b" (var "i") (var "t");
            ];
          print (var "t");
          print (load "b" (int 31));
        ];
    ]

(* The consumer loop as an asic task (cluster id 2 in the chain: after
   the straight head and producer loop). *)
let consumer_task ?(clock_scale = 1.0) ?(stream = []) ?(buffer_in = [])
    ?(buffer_out = []) () =
  let chain = Lp_cluster.Cluster.decompose pipeline in
  let cluster = List.nth chain 2 in
  let profile = (Interp.run pipeline).Interp.profile in
  let segs = Lp_cluster.Cluster.segments cluster in
  {
    System.acall_id = 2;
    stmts = cluster.Lp_cluster.Cluster.stmts;
    use_scalars = [ "s"; "t" ];
    gen_scalars = [ "t" ];
    private_arrays = [];
    buffer_in_arrays = buffer_in;
    buffer_out_arrays = buffer_out;
    stream_arrays = stream;
    power_w = 0.02;
    clock_scale;
    seg_lengths =
      List.map
        (fun (seg : Lp_cluster.Cluster.segment) ->
          ( seg.Lp_cluster.Cluster.anchor_sid,
            (* a plausible fixed schedule length per segment *)
            4 ))
        segs;
  }
  |> fun t ->
  ignore profile;
  t

let test_initial_accounting () =
  let r = System.run pipeline in
  Alcotest.(check int) "no asic" 0 r.System.asic_invocations;
  Alcotest.(check bool) "uP cycles positive" true (r.System.up_cycles > 0);
  Alcotest.(check bool) "icache energy positive" true (r.System.icache_j > 0.0);
  Alcotest.(check bool) "dcache energy positive" true (r.System.dcache_j > 0.0);
  Alcotest.(check bool) "memory energy positive" true (r.System.mem_j > 0.0);
  Alcotest.(check bool) "total = sum of parts" true
    (Float.abs
       (System.total_energy_j r
       -. (r.System.icache_j +. r.System.dcache_j +. r.System.mem_j
          +. r.System.bus_j +. r.System.up_j +. r.System.asic_j))
    < 1e-15);
  (* Fetch traffic must dominate the i-cache stats. *)
  Alcotest.(check bool) "ifetch counted" true
    (r.System.icache_stats.Cache.reads >= r.System.instr_count)

let test_outputs_match_interpreter () =
  let expected = (Interp.run pipeline).Interp.outputs in
  let r = System.run pipeline in
  Alcotest.(check (list int)) "initial outputs" expected r.System.outputs

let test_partitioned_equivalence () =
  let expected = (Interp.run pipeline).Interp.outputs in
  let r = System.run ~tasks:[ consumer_task () ] pipeline in
  Alcotest.(check (list int)) "partitioned outputs" expected r.System.outputs;
  Alcotest.(check int) "one invocation" 1 r.System.asic_invocations;
  Alcotest.(check bool) "asic cycles counted" true (r.System.asic_cycles > 0);
  Alcotest.(check bool) "asic energy charged" true (r.System.asic_j > 0.0)

let test_partition_moves_up_work () =
  let initial = System.run pipeline in
  let part = System.run ~tasks:[ consumer_task () ] pipeline in
  Alcotest.(check bool) "uP does less" true
    (part.System.up_cycles < initial.System.up_cycles);
  Alcotest.(check bool) "fewer instructions" true
    (part.System.instr_count < initial.System.instr_count)

let test_clock_scale_slows_asic () =
  let fast = System.run ~tasks:[ consumer_task ~clock_scale:1.0 () ] pipeline in
  let slow = System.run ~tasks:[ consumer_task ~clock_scale:2.0 () ] pipeline in
  Alcotest.(check bool) "slower clock, more cycles" true
    (slow.System.asic_cycles > fast.System.asic_cycles);
  Alcotest.(check (list int)) "same outputs" fast.System.outputs slow.System.outputs

let test_streaming_charges_memory () =
  let buffered =
    System.run
      ~tasks:[ consumer_task ~buffer_in:[ ("a", 32) ] ~buffer_out:[ ("b", 32) ] () ]
      pipeline
  in
  let streamed = System.run ~tasks:[ consumer_task ~stream:[ "a"; "b" ] () ] pipeline in
  (* Streaming pays per dynamic access (32 reads + 32 writes) at the
     single-word cost; buffering pays one burst each way. *)
  Alcotest.(check bool) "streaming is slower" true
    (streamed.System.asic_cycles > buffered.System.asic_cycles);
  Alcotest.(check (list int)) "same outputs" buffered.System.outputs
    streamed.System.outputs

let test_dcache_flushed_on_acall () =
  (* The producer dirtied the d-cache; the Acall must write those lines
     back (visible as extra memory writes vs a run without tasks up to
     that point). Check the flush by observing write-back counts. *)
  let part = System.run ~tasks:[ consumer_task () ] pipeline in
  Alcotest.(check bool) "writebacks happened" true
    (part.System.mem_totals.Lp_mem.Memory.mem_writes > 0)

let test_unknown_acall_fails () =
  let task = { (consumer_task ()) with System.acall_id = 99 } in
  (* The compiler will emit Acall 99 for... nothing: the task's sids
     do not exist, so compilation ignores it and the program just runs
     in software. The run must still verify. *)
  let r = System.run ~tasks:[ { task with System.stmts = [] } ] pipeline in
  Alcotest.(check (list int)) "no stub, software run"
    (Interp.run pipeline).Interp.outputs r.System.outputs

let test_custom_cache_config () =
  let config =
    {
      System.default_config with
      System.icache = { Cache.default_icache with Cache.size_bytes = 8192 };
      dcache = { Cache.default_dcache with Cache.size_bytes = 8192 };
    }
  in
  let big = System.run ~config pipeline in
  let small = System.run pipeline in
  Alcotest.(check (list int)) "outputs independent of caches"
    small.System.outputs big.System.outputs;
  (* Bigger caches: fewer stalls, but pricier per access. *)
  Alcotest.(check bool) "fewer or equal stalls" true
    (big.System.stall_cycles <= small.System.stall_cycles)

(* [print(f())] where [f] prints: the callee's output comes first, on
   the interpreter as on the compiled code. *)
let test_print_of_printing_call () =
  let p =
    let open Lp_ir.Builder in
    program ~arrays:[]
      [
        func "f" ~params:[] ~locals:[] [ print (int 7); return (int 1) ];
        func "main" ~params:[] ~locals:[] [ print (call "f" []) ];
      ]
  in
  let interp = (Interp.run p).Interp.outputs in
  Alcotest.(check (list int)) "interpreter" [ 7; 1 ] interp;
  Alcotest.(check (list int)) "system = interpreter" interp
    (System.run p).System.outputs

let prop_system_matches_interp =
  QCheck.Test.make ~name:"random programs: system == interpreter" ~count:60
    Lp_testkit.program_arbitrary (fun p ->
      (Interp.run p).Interp.outputs = (System.run p).System.outputs)

let () =
  Alcotest.run "lp_system"
    [
      ( "initial",
        [
          Alcotest.test_case "accounting" `Quick test_initial_accounting;
          Alcotest.test_case "outputs vs interpreter" `Quick test_outputs_match_interpreter;
          Alcotest.test_case "custom cache config" `Quick test_custom_cache_config;
          Alcotest.test_case "print of a printing call" `Quick
            test_print_of_printing_call;
        ] );
      ( "partitioned",
        [
          Alcotest.test_case "output equivalence" `Quick test_partitioned_equivalence;
          Alcotest.test_case "uP work moves" `Quick test_partition_moves_up_work;
          Alcotest.test_case "clock scale" `Quick test_clock_scale_slows_asic;
          Alcotest.test_case "stream vs buffer" `Quick test_streaming_charges_memory;
          Alcotest.test_case "coherence flush" `Quick test_dcache_flushed_on_acall;
          Alcotest.test_case "empty stub" `Quick test_unknown_acall_fails;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_system_matches_interp ]);
    ]
