(* Cache simulator: geometry validation, hit/miss behaviour per
   configuration, LRU replacement, write policies, flush, energy model
   monotonicity, plus random-trace properties. *)

module Cache = Lp_cache.Cache

let dm_config =
  { Cache.size_bytes = 256; line_bytes = 16; assoc = 1; policy = Cache.Write_back }

let w2_config = { dm_config with Cache.assoc = 2 }

let wt_config = { dm_config with Cache.policy = Cache.Write_through }

let test_config_validation () =
  Alcotest.(check bool) "defaults valid" true
    (Cache.config_valid Cache.default_icache && Cache.config_valid Cache.default_dcache);
  Alcotest.(check bool) "non-pow2 size" false
    (Cache.config_valid { dm_config with Cache.size_bytes = 300 });
  Alcotest.(check bool) "line too small" false
    (Cache.config_valid { dm_config with Cache.line_bytes = 2 });
  Alcotest.(check bool) "assoc exceeds size" false
    (Cache.config_valid { dm_config with Cache.assoc = 64 });
  Alcotest.(check int) "sets" 16 (Cache.sets dm_config);
  match Cache.create { dm_config with Cache.size_bytes = 300 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "invalid geometry accepted"

let test_cold_miss_then_hit () =
  let c = Cache.create dm_config in
  let e1 = Cache.read c 0x100 in
  Alcotest.(check bool) "cold miss" false e1.Cache.hit;
  Alcotest.(check int) "fills a line" 4 e1.Cache.fill_words;
  let e2 = Cache.read c 0x104 in
  Alcotest.(check bool) "same line hits" true e2.Cache.hit;
  Alcotest.(check int) "no refill" 0 e2.Cache.fill_words;
  let s = Cache.stats c in
  Alcotest.(check int) "reads" 2 s.Cache.reads;
  Alcotest.(check int) "one miss" 1 s.Cache.read_misses

let test_direct_mapped_conflict () =
  let c = Cache.create dm_config in
  (* Two addresses 256 bytes apart map to the same set in a 256-byte
     direct-mapped cache. *)
  ignore (Cache.read c 0);
  ignore (Cache.read c 256);
  let e = Cache.read c 0 in
  Alcotest.(check bool) "evicted by conflict" false e.Cache.hit

let test_two_way_avoids_conflict () =
  let c = Cache.create w2_config in
  ignore (Cache.read c 0);
  ignore (Cache.read c 256);
  let e = Cache.read c 0 in
  Alcotest.(check bool) "second way holds it" true e.Cache.hit

let test_lru_replacement () =
  let c = Cache.create w2_config in
  (* Fill both ways of set 0, touch the first again, then bring a third
     line: the least recently used (second) must go. *)
  ignore (Cache.read c 0);
  ignore (Cache.read c 256);
  ignore (Cache.read c 0);
  ignore (Cache.read c 512);
  Alcotest.(check bool) "first retained" true (Cache.read c 0).Cache.hit;
  Alcotest.(check bool) "second evicted" false (Cache.read c 256).Cache.hit

(* One set of four ways: a new line takes an invalid way while there is
   one, so four distinct lines all stay resident; after that the least
   recently used way goes, in LRU order. *)
let test_four_way_victim_order () =
  let c =
    Cache.create { dm_config with Cache.size_bytes = 64; assoc = 4 }
  in
  let line k = 16 * k in
  let hits ks = List.map (fun k -> (Cache.read c (line k)).Cache.hit) ks in
  Alcotest.(check (list bool)) "four cold misses" [ false; false; false; false ]
    (hits [ 0; 1; 2; 3 ]);
  Alcotest.(check (list bool)) "all four resident" [ true; true; true; true ]
    (hits [ 0; 1; 2; 3 ]);
  (* Recency now, oldest first: 1, 3, 2, 0. *)
  ignore (hits [ 2; 0 ]);
  Alcotest.(check (list bool)) "new lines miss" [ false; false ] (hits [ 4; 5 ]);
  (* 4 evicted 1, then 5 evicted 3. *)
  Alcotest.(check (list bool)) "survivors" [ true; true; true; true ]
    (hits [ 0; 2; 4; 5 ]);
  Alcotest.(check (list bool)) "victims, oldest first" [ false; false ]
    (hits [ 1; 3 ]);
  (* 1 evicted 0, then 3 evicted 2; 4 and 5 survive. *)
  Alcotest.(check (list bool)) "LRU again" [ true; true; false ]
    (hits [ 4; 5; 0 ])

let test_writeback_dirty_eviction () =
  let c = Cache.create dm_config in
  let w = Cache.write c 0 in
  Alcotest.(check bool) "write allocates" false w.Cache.hit;
  Alcotest.(check int) "write fill" 4 w.Cache.fill_words;
  Alcotest.(check int) "no immediate writeback" 0 w.Cache.writeback_words;
  (* Conflict-evict the dirty line. *)
  let e = Cache.read c 256 in
  Alcotest.(check int) "dirty line written back" 4 e.Cache.writeback_words;
  Alcotest.(check int) "writeback counted" 1 (Cache.stats c).Cache.writebacks

let test_clean_eviction_no_writeback () =
  let c = Cache.create dm_config in
  ignore (Cache.read c 0);
  let e = Cache.read c 256 in
  Alcotest.(check int) "clean eviction free" 0 e.Cache.writeback_words

let test_write_through () =
  let c = Cache.create wt_config in
  let w1 = Cache.write c 0 in
  Alcotest.(check int) "write-through word" 1 w1.Cache.through_words;
  Alcotest.(check int) "no allocate" 0 w1.Cache.fill_words;
  (* A read of that address still misses (no-allocate). *)
  Alcotest.(check bool) "read misses after WT write" false (Cache.read c 0).Cache.hit;
  (* A write hit also goes through. *)
  let w2 = Cache.write c 0 in
  Alcotest.(check int) "hit writes through too" 1 w2.Cache.through_words

let test_flush () =
  let c = Cache.create dm_config in
  ignore (Cache.write c 0);
  ignore (Cache.write c 16);
  ignore (Cache.read c 32);
  let words = Cache.flush c in
  Alcotest.(check int) "two dirty lines flushed" 8 words;
  Alcotest.(check bool) "everything invalidated" false (Cache.read c 32).Cache.hit;
  Alcotest.(check int) "second flush empty" 0 (Cache.flush c)

let test_energy_accumulates () =
  let c = Cache.create dm_config in
  let e0 = (Cache.stats c).Cache.energy_j in
  ignore (Cache.read c 0);
  let e1 = (Cache.stats c).Cache.energy_j in
  ignore (Cache.write c 0);
  let e2 = (Cache.stats c).Cache.energy_j in
  Alcotest.(check bool) "read adds energy" true (e1 > e0);
  Alcotest.(check bool) "write adds more than read" true (e2 -. e1 > e1 -. e0)

let test_energy_model_monotone () =
  (* Bigger arrays cost more per access. *)
  let small = Cache.read_energy_j dm_config in
  let big = Cache.read_energy_j { dm_config with Cache.size_bytes = 4096 } in
  Alcotest.(check bool) "bigger cache, bigger access energy" true (big > small);
  let wide = Cache.read_energy_j { dm_config with Cache.assoc = 4 } in
  Alcotest.(check bool) "higher assoc, bigger access energy" true (wide > small);
  Alcotest.(check bool) "write >= read" true
    (Cache.write_energy_j dm_config > Cache.read_energy_j dm_config)

(* --- bulk paths against the event API --- *)

(* A twin cache driven one access at a time: the aggregate a bulk call
   must report, as (misses, fills, writebacks, through words, miss
   words, uncached reads, uncached writes). *)
let singles c ?(uncached = fun _ -> false) accesses =
  List.fold_left
    (fun (m, f, wb, th, mw, ur, uw) (a, write) ->
      if uncached a then
        if write then (m, f, wb, th, mw, ur, uw + 1)
        else (m, f, wb, th, mw, ur + 1, uw)
      else
        let e = if write then Cache.write c a else Cache.read c a in
        let moved =
          e.Cache.fill_words + e.Cache.writeback_words + e.Cache.through_words
        in
        ( (if e.Cache.hit then m else m + 1),
          f + e.Cache.fill_words,
          wb + e.Cache.writeback_words,
          th + e.Cache.through_words,
          (if e.Cache.hit then mw else mw + moved),
          ur,
          uw ))
    (0, 0, 0, 0, 0, 0, 0) accesses

let aggregate (r : Cache.run_event) =
  ( r.Cache.run_misses,
    r.Cache.run_fill_words,
    r.Cache.run_writeback_words,
    r.Cache.run_through_words,
    r.Cache.run_miss_words,
    r.Cache.run_uncached_reads,
    r.Cache.run_uncached_writes )

let fetch c twin a n =
  Alcotest.(check bool)
    (Printf.sprintf "fetch %d+%d aggregate" a n)
    true
    (aggregate (Cache.read_run c a n)
    = singles twin (List.init n (fun i -> (a + (4 * i), false))))

let same_state c twin =
  Alcotest.(check bool) "same stats" true (Cache.stats c = Cache.stats twin);
  Alcotest.(check int) "same dirty lines" (Cache.flush twin) (Cache.flush c)

(* A repeated fetch on a direct-mapped cache probes nothing once it has
   completed without a miss; a fill anywhere in the cache, or a flush,
   makes the next one probe again. *)
let test_fetch_epoch () =
  let c = Cache.create dm_config and twin = Cache.create dm_config in
  let probes label n = Alcotest.(check int) label n (Cache.fetch_probes c) in
  fetch c twin 0 6;
  probes "a cold fetch probes its two lines" 2;
  fetch c twin 0 6;
  probes "one that missed was not recorded" 4;
  fetch c twin 0 6;
  fetch c twin 0 6;
  probes "a recorded fetch probes nothing" 4;
  fetch c twin 64 3;
  fetch c twin 0 6;
  probes "another block's fill moved the epoch" 7;
  fetch c twin 0 6;
  probes "recorded again" 7;
  ignore (Cache.flush c);
  ignore (Cache.flush twin);
  fetch c twin 0 6;
  probes "a flush moved the epoch" 9;
  Alcotest.(check int) "the refetch after the flush missed" 5
    (Cache.stats c).Cache.read_misses;
  same_state c twin

(* 80 words (320 bytes) through a 256-byte direct-mapped cache: the
   block's last four lines evict its first four, so every entry misses
   eight lines and the fetch is never recorded. *)
let test_fetch_longer_than_cache () =
  let c = Cache.create dm_config and twin = Cache.create dm_config in
  for _ = 1 to 3 do
    fetch c twin 0 80
  done;
  Alcotest.(check int) "20 cold misses, then 8 per entry" (20 + 8 + 8)
    (Cache.stats c).Cache.read_misses;
  Alcotest.(check int) "every entry probes its 20 lines" 60
    (Cache.fetch_probes c);
  same_state c twin

(* On a 2-way cache a refetch must still stamp its line: A, B, A, B, A
   leaves A most recent, so C evicts B and A still hits. *)
let test_fetch_two_way_lru () =
  let cfg = { w2_config with Cache.size_bytes = 64; line_bytes = 8 } in
  let c = Cache.create cfg and twin = Cache.create cfg in
  List.iter (fun a -> fetch c twin a 2) [ 0; 32; 0; 32; 0; 64; 0 ];
  Alcotest.(check int) "A, B and C miss once each" 3
    (Cache.stats c).Cache.read_misses;
  same_state c twin

(* One drain on a write-through cache: write misses allocate nothing
   and write every word through; a read fills; later writes hit and
   still go through. *)
let test_drain_write_through () =
  let c = Cache.create wt_config and twin = Cache.create wt_config in
  let accesses =
    [ (0, true); (4, true); (0, false); (8, false); (0, true); (12, true); (64, true) ]
  in
  let buf = Array.of_list (List.map (fun (a, w) -> if w then a lor 1 else a) accesses) in
  Alcotest.(check bool) "aggregate" true
    (aggregate (Cache.drain c ~uncached_lo:0 ~uncached_hi:0 buf (Array.length buf))
    = singles twin accesses);
  same_state c twin

(* Mailbox words [96, 112) inside one drain with cached runs on the
   same and the neighbouring lines: only the cached accesses reach the
   cache, the others come back as uncached words. *)
let test_drain_uncached_window () =
  let c = Cache.create w2_config and twin = Cache.create w2_config in
  let uncached a = a >= 96 && a < 112 in
  let accesses =
    [
      (92, false); (96, false); (100, true); (104, false); (108, true);
      (112, false); (116, false); (96, true); (88, true); (92, true); (112, true);
    ]
  in
  let buf = Array.of_list (List.map (fun (a, w) -> if w then a lor 1 else a) accesses) in
  let got =
    aggregate (Cache.drain c ~uncached_lo:96 ~uncached_hi:112 buf (Array.length buf))
  in
  Alcotest.(check bool) "aggregate" true (got = singles twin ~uncached accesses);
  let s = Cache.stats c in
  Alcotest.(check int) "cached accesses only" 6 (s.Cache.reads + s.Cache.writes);
  same_state c twin

(* --- properties --- *)

let addr_trace =
  QCheck.make
    ~print:(fun l -> String.concat "," (List.map string_of_int l))
    QCheck.Gen.(list_size (int_range 1 200) (map (fun a -> a * 4) (int_range 0 512)))

let prop_hit_after_access =
  QCheck.Test.make ~name:"an address just read is a hit" ~count:200 addr_trace
    (fun trace ->
      let c = Cache.create w2_config in
      List.for_all
        (fun a ->
          ignore (Cache.read c a);
          (Cache.read c a).Cache.hit)
        trace)

let prop_stats_consistent =
  QCheck.Test.make ~name:"misses never exceed accesses" ~count:200 addr_trace
    (fun trace ->
      let c = Cache.create dm_config in
      List.iter (fun a -> ignore (if a mod 8 = 0 then Cache.write c a else Cache.read c a)) trace;
      let s = Cache.stats c in
      s.Cache.read_misses <= s.Cache.reads
      && s.Cache.write_misses <= s.Cache.writes
      && s.Cache.reads + s.Cache.writes = List.length trace)

let prop_flush_writes_bounded =
  QCheck.Test.make ~name:"flush writes back at most the capacity" ~count:200
    addr_trace (fun trace ->
      let c = Cache.create dm_config in
      List.iter (fun a -> ignore (Cache.write c a)) trace;
      Cache.flush c * 4 <= dm_config.Cache.size_bytes)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "lp_cache"
    [
      ( "geometry",
        [
          Alcotest.test_case "validation" `Quick test_config_validation;
        ] );
      ( "behaviour",
        [
          Alcotest.test_case "cold miss then hit" `Quick test_cold_miss_then_hit;
          Alcotest.test_case "direct-mapped conflict" `Quick test_direct_mapped_conflict;
          Alcotest.test_case "two-way avoids conflict" `Quick test_two_way_avoids_conflict;
          Alcotest.test_case "LRU replacement" `Quick test_lru_replacement;
          Alcotest.test_case "4-way victim order" `Quick test_four_way_victim_order;
          Alcotest.test_case "write-back dirty eviction" `Quick test_writeback_dirty_eviction;
          Alcotest.test_case "clean eviction" `Quick test_clean_eviction_no_writeback;
          Alcotest.test_case "write-through" `Quick test_write_through;
          Alcotest.test_case "flush" `Quick test_flush;
        ] );
      ( "bulk",
        [
          Alcotest.test_case "fetch residency epoch" `Quick test_fetch_epoch;
          Alcotest.test_case "fetch longer than the cache" `Quick
            test_fetch_longer_than_cache;
          Alcotest.test_case "2-way refetch keeps LRU" `Quick test_fetch_two_way_lru;
          Alcotest.test_case "drain, write-through" `Quick test_drain_write_through;
          Alcotest.test_case "drain, uncached window" `Quick
            test_drain_uncached_window;
        ] );
      ( "energy",
        [
          Alcotest.test_case "accumulates" `Quick test_energy_accumulates;
          Alcotest.test_case "monotone in geometry" `Quick test_energy_model_monotone;
        ] );
      ( "properties",
        qcheck [ prop_hit_after_access; prop_stats_consistent; prop_flush_writes_bounded ] );
    ]
