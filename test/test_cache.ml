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

(* --- the co-simulation's paths against the event API --- *)

(* A twin cache driven one access at a time: the traffic the production
   paths must report, as (misses, fills, evictions, through words, miss
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

(* [Cache.traffic] is cumulative: the twin's per-access sums are kept
   beside it. *)
type twins = {
  c : Cache.t;
  twin : Cache.t;
  mutable sum : int * int * int * int * int * int * int;
}

let twins cfg = { c = Cache.create cfg; twin = Cache.create cfg; sum = (0, 0, 0, 0, 0, 0, 0) }

let traffic c =
  let t = Cache.traffic c in
  Cache.
    ( t.misses,
      t.fill_words,
      t.evict_words,
      t.through_words,
      t.miss_words,
      t.uncached_reads,
      t.uncached_writes )

let settle_twin p ?uncached accesses =
  let m, f, wb, th, mw, ur, uw = p.sum
  and m', f', wb', th', mw', ur', uw' = singles p.twin ?uncached accesses in
  p.sum <- (m + m', f + f', wb + wb', th + th', mw + mw', ur + ur', uw + uw')

(* One fetch and its reads on the production path, every word read on
   the twin; returns the fetch's epoch stamp. *)
let fetch p a n =
  let stamp = Cache.fetch p.c a n in
  Cache.count_reads p.c n;
  settle_twin p (List.init n (fun i -> (a + (4 * i), false)));
  Alcotest.(check bool)
    (Printf.sprintf "traffic after fetch %d+%d" a n)
    true
    (traffic p.c = p.sum);
  stamp

let same_state p =
  Alcotest.(check bool) "same stats" true (Cache.stats p.c = Cache.stats p.twin);
  Alcotest.(check int) "same dirty lines" (Cache.flush p.twin) (Cache.flush p.c)

(* A block entry as the ISS makes it: the fetch is skipped while the
   block's stamp equals the epoch, and the reads are counted either
   way; the twin reads every word of every entry. A direct-mapped fetch
   that hit in full returns the epoch; a fill anywhere in the cache, or
   a flush, moves it, so the next entry fetches (and probes) again. *)
let test_fetch_epoch () =
  let p = twins dm_config in
  let c = p.c in
  let probes label n = Alcotest.(check int) label n (Cache.fetch_probes c) in
  let entry stamp a n =
    if !stamp <> !(Cache.epoch c) then stamp := fetch p a n
    else begin
      Cache.count_reads c n;
      settle_twin p (List.init n (fun i -> (a + (4 * i), false)))
    end
  in
  let b0 = ref (-1) and b1 = ref (-1) in
  entry b0 0 6;
  probes "a cold fetch probes its two lines" 2;
  Alcotest.(check int) "one that missed returns -1" (-1) !b0;
  entry b0 0 6;
  probes "so it is fetched again" 4;
  Alcotest.(check int) "one that hit returns the epoch" !(Cache.epoch c) !b0;
  entry b0 0 6;
  entry b0 0 6;
  probes "a fetch under its epoch is skipped" 4;
  entry b1 64 3;
  entry b0 0 6;
  probes "another block's fill moved the epoch" 7;
  entry b0 0 6;
  probes "skipped again" 7;
  ignore (Cache.flush c);
  ignore (Cache.flush p.twin);
  entry b0 0 6;
  probes "a flush moved the epoch" 9;
  Alcotest.(check int) "the refetch after the flush missed" 5
    (Cache.stats c).Cache.read_misses;
  Alcotest.(check bool) "traffic" true (traffic c = p.sum);
  same_state p

(* 80 words (320 bytes) through a 256-byte direct-mapped cache: the
   block's last four lines evict its first four, so every entry misses
   eight lines and the fetch never returns an epoch. *)
let test_fetch_longer_than_cache () =
  let p = twins dm_config in
  for _ = 1 to 3 do
    Alcotest.(check int) "no epoch" (-1) (fetch p 0 80)
  done;
  Alcotest.(check int) "20 cold misses, then 8 per entry" (20 + 8 + 8)
    (Cache.stats p.c).Cache.read_misses;
  Alcotest.(check int) "every entry probes its 20 lines" 60
    (Cache.fetch_probes p.c);
  same_state p

(* On a 2-way cache a fetch must stamp its line: A, B, A, B, A leaves
   A most recent, so C evicts B and A still hits. No 2-way fetch
   returns an epoch, so none is ever skipped. *)
let test_fetch_two_way_lru () =
  let cfg = { w2_config with Cache.size_bytes = 64; line_bytes = 8 } in
  let p = twins cfg in
  List.iter
    (fun a -> Alcotest.(check int) "2-way: no epoch" (-1) (fetch p a 2))
    [ 0; 32; 0; 32; 0; 64; 0 ];
  Alcotest.(check int) "A, B and C miss once each" 3
    (Cache.stats p.c).Cache.read_misses;
  same_state p

(* Write-through through the data port: write misses allocate nothing
   and write every word through; a read fills; later writes hit and
   still go through. *)
let test_port_write_through () =
  let p = twins wt_config in
  let read, write = Cache.data_port p.c ~uncached_lo:0 ~uncached_hi:0 in
  let accesses =
    [ (0, true); (4, true); (0, false); (8, false); (0, true); (12, true); (64, true) ]
  in
  List.iter (fun (a, w) -> if w then write a else read a) accesses;
  settle_twin p accesses;
  Alcotest.(check bool) "traffic" true (traffic p.c = p.sum);
  same_state p

(* Mailbox words [96, 112) between cached accesses on the same and the
   neighbouring lines: only the cached accesses reach the cache, the
   others are counted as uncached words. *)
let test_port_uncached_window () =
  let p = twins w2_config in
  let uncached a = a >= 96 && a < 112 in
  let read, write = Cache.data_port p.c ~uncached_lo:96 ~uncached_hi:112 in
  let accesses =
    [
      (92, false); (96, false); (100, true); (104, false); (108, true);
      (112, false); (116, false); (96, true); (88, true); (92, true); (112, true);
    ]
  in
  List.iter (fun (a, w) -> if w then write a else read a) accesses;
  settle_twin p ~uncached accesses;
  Alcotest.(check bool) "traffic" true (traffic p.c = p.sum);
  let s = Cache.stats p.c in
  Alcotest.(check int) "cached accesses only" 6 (s.Cache.reads + s.Cache.writes);
  same_state p

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
          Alcotest.test_case "data port, write-through" `Quick
            test_port_write_through;
          Alcotest.test_case "data port, uncached window" `Quick
            test_port_uncached_window;
        ] );
      ( "energy",
        [
          Alcotest.test_case "accumulates" `Quick test_energy_accumulates;
          Alcotest.test_case "monotone in geometry" `Quick test_energy_model_monotone;
        ] );
      ( "properties",
        qcheck [ prop_hit_after_access; prop_stats_consistent; prop_flush_writes_bounded ] );
    ]
