(* Pre-selection (Fig. 3): transfer counting via gen/use intersections,
   synergy subtraction for adjacent ASIC clusters, ranking and the
   N_max bound. *)

module Cluster = Lp_cluster.Cluster
module Preselect = Lp_preselect.Preselect

(* Three clusters:
   c0 (loop) computes s and fills a;
   c1 (loop) consumes s and a, produces t and b;
   c2 (straight) prints t and b. *)
let pipeline () =
  let open Lp_ir.Builder in
  program
    ~arrays:[ array "a" 8; array "b" 8 ]
    [
      func "main" ~params:[] ~locals:[ "s"; "t" ]
        [
          for_ "i" (int 0) (int 8)
            [
              "s" := var "s" + var "i";
              store "a" (var "i") (var "s");
            ];
          for_ "i" (int 0) (int 8)
            [
              "t" := var "t" + load "a" (var "i") + var "s";
              store "b" (var "i") (var "t");
            ];
          print (var "t");
          print (load "b" (int 3));
        ];
    ]

let ctx () =
  let p = pipeline () in
  (p, Preselect.create p (Cluster.decompose p))

let no_asic _ = false

let test_transfer_counts () =
  let _, t = ctx () in
  let e = Preselect.estimate t ~in_asic:no_asic 1 in
  (* c1 uses s (scalar, 1 word) and a (array ref, 2 words) generated
     before it: 3 words in. It generates t (1) and b (2) used later:
     3 words out. *)
  Alcotest.(check int) "uP->mem words" 3 e.Preselect.n_up_to_mem;
  Alcotest.(check int) "ASIC->mem words" 3 e.Preselect.n_asic_to_mem;
  Alcotest.(check bool) "energy positive" true (e.Preselect.energy_j > 0.0)

let test_first_cluster_no_inbound () =
  let _, t = ctx () in
  let e = Preselect.estimate t ~in_asic:no_asic 0 in
  Alcotest.(check int) "nothing generated before c0" 0 e.Preselect.n_up_to_mem;
  (* c0 generates s and a, both used later. *)
  Alcotest.(check int) "outbound words" 3 e.Preselect.n_asic_to_mem

let test_synergy_reduces_traffic () =
  let _, t = ctx () in
  let baseline = Preselect.estimate t ~in_asic:no_asic 1 in
  (* With c0 already on the ASIC, c1's inbound handover shrinks. *)
  let with_pred = Preselect.estimate t ~in_asic:(fun cid -> cid = 0) 1 in
  Alcotest.(check bool) "synergy reduces inbound" true
    (with_pred.Preselect.n_up_to_mem < baseline.Preselect.n_up_to_mem);
  (* With c2 on the ASIC, c1's outbound shrinks. *)
  let with_succ = Preselect.estimate t ~in_asic:(fun cid -> cid = 2) 1 in
  Alcotest.(check bool) "synergy reduces outbound" true
    (with_succ.Preselect.n_asic_to_mem < baseline.Preselect.n_asic_to_mem);
  Alcotest.(check bool) "never negative" true
    (with_pred.Preselect.n_up_to_mem >= 0
    && with_succ.Preselect.n_asic_to_mem >= 0)

let test_synergy_both_sides () =
  let _, t = ctx () in
  let both = Preselect.estimate t ~in_asic:(fun cid -> cid = 0 || cid = 2) 1 in
  let pred_only = Preselect.estimate t ~in_asic:(fun cid -> cid = 0) 1 in
  let succ_only = Preselect.estimate t ~in_asic:(fun cid -> cid = 2) 1 in
  Alcotest.(check int) "inbound matches pred-only case"
    pred_only.Preselect.n_up_to_mem both.Preselect.n_up_to_mem;
  Alcotest.(check int) "outbound matches succ-only case"
    succ_only.Preselect.n_asic_to_mem both.Preselect.n_asic_to_mem;
  Alcotest.(check bool) "both-sides energy is the lowest" true
    (both.Preselect.energy_j <= pred_only.Preselect.energy_j
    && both.Preselect.energy_j <= succ_only.Preselect.energy_j)

let test_energy_uses_bus_costs () =
  let _, t = ctx () in
  let e = Preselect.estimate t ~in_asic:no_asic 1 in
  let per_word =
    Lp_tech.Cmos6.bus_write_energy_j +. Lp_tech.Cmos6.bus_read_energy_j
  in
  Alcotest.(check (float 1e-15)) "E = words * (write+read)"
    (float_of_int (e.Preselect.n_up_to_mem + e.Preselect.n_asic_to_mem)
    *. per_word)
    e.Preselect.energy_j

let profile_of p = (Lp_ir.Interp.run p).Lp_ir.Interp.profile

let test_pre_select_bounds_and_filter () =
  let p, t = ctx () in
  let profile = profile_of p in
  let all = Preselect.pre_select t ~profile ~n_max:10 in
  (* All three clusters are call-free candidates with work. *)
  Alcotest.(check int) "all candidates kept" 3 (List.length all);
  let one = Preselect.pre_select t ~profile ~n_max:1 in
  Alcotest.(check int) "n_max enforced" 1 (List.length one)

let test_pre_select_drops_dead_and_calls () =
  let p =
    let open Lp_ir.Builder in
    program ~arrays:[]
      [
        func "h" ~params:[] ~locals:[] [ return (int 1) ];
        func "main" ~params:[] ~locals:[ "x"; "c" ]
          [
            "c" := int 0;
            (* dead loop: zero iterations *)
            for_ "i" (int 0) (int 0) [ "x" := var "x" + int 1 ];
            (* call-bound loop *)
            for_ "i" (int 0) (int 3) [ "x" := var "x" + call "h" [] ];
            print (var "x");
          ];
      ]
  in
  let t = Preselect.create p (Cluster.decompose p) in
  let kept = Preselect.pre_select t ~profile:(profile_of p) ~n_max:10 in
  (* Only the first straight cluster ("c := 0") and the print cluster
     remain: dead loop has no work, call loop is not a candidate. *)
  List.iter
    (fun ((c : Cluster.t), _) ->
      Alcotest.(check bool) "kept clusters are candidates" true
        (Cluster.asic_candidate c);
      Alcotest.(check bool) "kept clusters have work" true
        (Preselect.dynamic_work t ~profile:(profile_of p) c.Cluster.cid > 0))
    kept

let test_dynamic_work_scales_with_profile () =
  let p, t = ctx () in
  let profile = profile_of p in
  let w1 = Preselect.dynamic_work t ~profile 1 in
  Alcotest.(check bool) "loop work > tail work" true
    (w1 > Preselect.dynamic_work t ~profile 2)

(* --- differential: the prefix/suffix implementation against the
   list-based Fig. 3 reference ---------------------------------------

   The reference below is the straightforward reading of Fig. 3: sets
   computed per cluster with [Dataflow.of_cluster] (its own call
   summary fixpoint each time), predecessors and successors re-unioned
   through [List.assoc] on every call. It is quadratic in the chain
   length and lives here only as an oracle. *)

module Dataflow = Lp_dataflow.Dataflow
module Sset = Dataflow.Sset

module Reference = struct
  type t = { chain : Cluster.chain; sets : (int * Dataflow.sets) list }

  let create p chain =
    {
      chain;
      sets = List.map (fun (c : Cluster.t) -> (c.cid, Dataflow.of_cluster p c)) chain;
    }

  let cluster_sets t cid = List.assoc cid t.sets

  let handover_words gen_side use_side =
    Sset.cardinal
      (Sset.inter gen_side.Dataflow.gen_scalars use_side.Dataflow.use_scalars)
    + 2
      * Sset.cardinal
          (Sset.inter gen_side.Dataflow.gen_arrays use_side.Dataflow.use_arrays)

  let union_sets t cids =
    List.fold_left
      (fun acc cid -> Dataflow.union acc (cluster_sets t cid))
      Dataflow.empty cids

  let estimate t ~in_asic cid =
    let ids = List.map (fun (c : Cluster.t) -> c.cid) t.chain in
    let self = cluster_sets t cid in
    let preds = List.filter (fun i -> i < cid) ids in
    let succs = List.filter (fun i -> i > cid) ids in
    let n_up = handover_words (union_sets t preds) self in
    let n_up =
      if List.mem (cid - 1) ids && in_asic (cid - 1) then
        n_up - handover_words (cluster_sets t (cid - 1)) self
      else n_up
    in
    let n_asic = handover_words self (union_sets t succs) in
    let n_asic =
      if List.mem (cid + 1) ids && in_asic (cid + 1) then
        n_asic - handover_words self (cluster_sets t (cid + 1))
      else n_asic
    in
    let n_up = max 0 n_up and n_asic = max 0 n_asic in
    let per_word =
      Lp_tech.Cmos6.bus_write_energy_j +. Lp_tech.Cmos6.bus_read_energy_j
    in
    {
      Preselect.cid;
      n_up_to_mem = n_up;
      n_asic_to_mem = n_asic;
      energy_j = float_of_int (n_up + n_asic) *. per_word;
    }

  let dynamic_work t ~profile cid =
    let c = List.find (fun (c : Cluster.t) -> c.cid = cid) t.chain in
    List.fold_left
      (fun acc (ops, times) -> acc + (List.length ops * times))
      0
      (Cluster.dynamic_ops c ~profile)

  let pre_select t ~profile ~n_max =
    let no_asic _ = false in
    let candidates =
      List.filter
        (fun (c : Cluster.t) ->
          Cluster.asic_candidate c && dynamic_work t ~profile c.cid > 0)
        t.chain
    in
    let scored =
      List.map
        (fun (c : Cluster.t) ->
          let e = estimate t ~in_asic:no_asic c.cid in
          let work = dynamic_work t ~profile c.cid in
          (c, e, e.Preselect.energy_j /. float_of_int work, work))
        candidates
    in
    List.sort
      (fun (_, _, s1, w1) (_, _, s2, w2) ->
        match compare s1 s2 with 0 -> compare w2 w1 | c -> c)
      scored
    |> List.filteri (fun i _ -> i < n_max)
    |> List.map (fun (c, e, _, _) -> (c, e))
end

let differential_programs () =
  List.map (fun (e : Lp_apps.Apps.entry) -> (e.name, e.build ())) Lp_apps.Apps.all
  @ List.map
      (fun spec ->
        match Lp_apps.Apps.resolve spec with
        | Ok e -> (spec, e.Lp_apps.Apps.build ())
        | Error msg -> Alcotest.fail msg)
      [ "gen:paper:1"; "gen:wide:1"; "gen:deep:1" ]

let check_estimate what (want : Preselect.estimate) (got : Preselect.estimate) =
  Alcotest.(check int) (what ^ " cid") want.cid got.cid;
  Alcotest.(check int) (what ^ " n_up_to_mem") want.n_up_to_mem got.n_up_to_mem;
  Alcotest.(check int)
    (what ^ " n_asic_to_mem") want.n_asic_to_mem got.n_asic_to_mem;
  (* Exact: both sides multiply the same word count by the same
     per-word energy. *)
  Alcotest.(check bool)
    (Printf.sprintf "%s energy_j %h = %h" what want.energy_j got.energy_j)
    true
    (Float.equal want.energy_j got.energy_j)

let test_estimate_matches_reference () =
  List.iter
    (fun (name, p) ->
      let chain = Cluster.decompose p in
      let t = Preselect.create p chain in
      let r = Reference.create p chain in
      let n = List.length chain in
      let rng = Random.State.make [| 0x5e1ec7; n |] in
      let random = Array.init n (fun _ -> Random.State.bool rng) in
      List.iter
        (fun (mask_name, in_asic) ->
          List.iter
            (fun (c : Cluster.t) ->
              let what = Printf.sprintf "%s c%d mask=%s" name c.cid mask_name in
              check_estimate what
                (Reference.estimate r ~in_asic c.cid)
                (Preselect.estimate t ~in_asic c.cid))
            chain)
        [
          ("none", fun _ -> false);
          ("all", fun _ -> true);
          ("random", fun cid -> random.(cid));
        ])
    (differential_programs ())

let test_pre_select_matches_reference () =
  List.iter
    (fun (name, p) ->
      let chain = Cluster.decompose p in
      let t = Preselect.create p chain in
      let r = Reference.create p chain in
      let profile = profile_of p in
      List.iter
        (fun n_max ->
          let got = Preselect.pre_select t ~profile ~n_max in
          let want = Reference.pre_select r ~profile ~n_max in
          let what = Printf.sprintf "%s n_max=%d" name n_max in
          Alcotest.(check (list int))
            (what ^ " order")
            (List.map (fun ((c : Cluster.t), _) -> c.cid) want)
            (List.map (fun ((c : Cluster.t), _) -> c.cid) got);
          List.iter2
            (fun (_, e_want) (_, e_got) -> check_estimate what e_want e_got)
            want got)
        [ 1; 8; List.length chain ])
    (differential_programs ())

let test_create_rejects_sparse_cids () =
  let p = pipeline () in
  let chain =
    List.map
      (fun (c : Cluster.t) -> if c.cid = 2 then { c with cid = 5 } else c)
      (Cluster.decompose p)
  in
  match Preselect.create p chain with
  | _ -> Alcotest.fail "non-dense cids were accepted"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "lp_preselect"
    [
      ( "fig3",
        [
          Alcotest.test_case "transfer counts" `Quick test_transfer_counts;
          Alcotest.test_case "first cluster" `Quick test_first_cluster_no_inbound;
          Alcotest.test_case "synergy" `Quick test_synergy_reduces_traffic;
          Alcotest.test_case "synergy both sides" `Quick test_synergy_both_sides;
          Alcotest.test_case "bus energy" `Quick test_energy_uses_bus_costs;
        ] );
      ( "selection",
        [
          Alcotest.test_case "n_max bound" `Quick test_pre_select_bounds_and_filter;
          Alcotest.test_case "drops dead and call clusters" `Quick
            test_pre_select_drops_dead_and_calls;
          Alcotest.test_case "dynamic work" `Quick test_dynamic_work_scales_with_profile;
        ] );
      ( "differential",
        [
          Alcotest.test_case "estimate = list-based Fig. 3" `Quick
            test_estimate_matches_reference;
          Alcotest.test_case "pre_select = list-based order" `Quick
            test_pre_select_matches_reference;
          Alcotest.test_case "create rejects non-dense cids" `Quick
            test_create_rejects_sparse_cids;
        ] );
    ]
