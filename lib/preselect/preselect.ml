module Cluster = Lp_cluster.Cluster
module Dataflow = Lp_dataflow.Dataflow
module Sset = Dataflow.Sset

(* One side of a handover: the gen fields of some clusters, or their
   use fields. The prefix and suffix arrays keep only the side Fig. 3
   intersects, not full four-field [Dataflow.sets]. *)
type items = { scalars : Sset.t; arrays : Sset.t }

type t = {
  clusters : Cluster.t array;
  sets : Dataflow.sets array;
  gen_before : items array;
      (* [gen_before.(i)]: gen fields unioned over clusters [cid < i] *)
  use_after : items array;
      (* [use_after.(i)]: use fields unioned over clusters [cid > i] *)
}

type estimate = {
  cid : int;
  n_up_to_mem : int;
  n_asic_to_mem : int;
  energy_j : float;
}

let no_items = { scalars = Sset.empty; arrays = Sset.empty }

let union_items a b =
  { scalars = Sset.union a.scalars b.scalars; arrays = Sset.union a.arrays b.arrays }

let gen_of (s : Dataflow.sets) =
  { scalars = s.Dataflow.gen_scalars; arrays = s.Dataflow.gen_arrays }

let use_of (s : Dataflow.sets) =
  { scalars = s.Dataflow.use_scalars; arrays = s.Dataflow.use_arrays }

let create p chain =
  List.iteri
    (fun i (c : Cluster.t) ->
      if c.cid <> i then
        invalid_arg
          (Printf.sprintf
             "Preselect.create: cluster at chain position %d has cid %d \
              (cids must be dense chain positions)"
             i c.cid))
    chain;
  let clusters = Array.of_list chain in
  let sets = Array.of_list (List.map snd (Dataflow.of_chain p chain)) in
  let n = Array.length sets in
  let gen_before = Array.make n no_items in
  for i = 1 to n - 1 do
    gen_before.(i) <- union_items gen_before.(i - 1) (gen_of sets.(i - 1))
  done;
  let use_after = Array.make n no_items in
  for i = n - 2 downto 0 do
    use_after.(i) <- union_items use_after.(i + 1) (use_of sets.(i + 1))
  done;
  { clusters; sets; gen_before; use_after }

let chain t = Array.to_list t.clusters

let check_cid t cid =
  if cid < 0 || cid >= Array.length t.sets then
    invalid_arg (Printf.sprintf "Preselect: unknown cluster %d" cid)

let cluster_sets t cid =
  check_cid t cid;
  t.sets.(cid)

let later_use_scalars t cid =
  check_cid t cid;
  t.use_after.(cid).scalars

let array_ref_words = 2

(* Bus words needed to hand over [gen ∩ use]. *)
let handover_words gen use =
  Sset.cardinal (Sset.inter gen.scalars use.scalars)
  + (array_ref_words * Sset.cardinal (Sset.inter gen.arrays use.arrays))

let estimate t ~in_asic cid =
  let self = cluster_sets t cid in
  let n = Array.length t.sets in
  (* Step 1: data generated anywhere before c_i and used inside it. *)
  let n_up = handover_words t.gen_before.(cid) (use_of self) in
  (* Step 2: synergy with an ASIC-resident immediate predecessor. *)
  let n_up =
    if cid - 1 >= 0 && in_asic (cid - 1) then
      n_up - handover_words (gen_of t.sets.(cid - 1)) (use_of self)
    else n_up
  in
  (* Step 3: data c_i generates that any later cluster uses. *)
  let n_asic = handover_words (gen_of self) t.use_after.(cid) in
  (* Step 4: synergy with an ASIC-resident immediate successor. *)
  let n_asic =
    if cid + 1 < n && in_asic (cid + 1) then
      n_asic - handover_words (gen_of self) (use_of t.sets.(cid + 1))
    else n_asic
  in
  let n_up = max 0 n_up and n_asic = max 0 n_asic in
  (* Step 5: each word is deposited (bus write) then downloaded (bus
     read). *)
  let per_word = Lp_tech.Cmos6.bus_write_energy_j +. Lp_tech.Cmos6.bus_read_energy_j in
  {
    cid;
    n_up_to_mem = n_up;
    n_asic_to_mem = n_asic;
    energy_j = float_of_int (n_up + n_asic) *. per_word;
  }

let dynamic_work t ~profile cid =
  check_cid t cid;
  List.fold_left
    (fun acc (ops, times) -> acc + (List.length ops * times))
    0
    (Cluster.dynamic_ops t.clusters.(cid) ~profile)

let pre_select t ~profile ~n_max =
  let no_asic _ = false in
  let scored =
    Array.to_list t.clusters
    |> List.filter_map (fun (c : Cluster.t) ->
           if not (Cluster.asic_candidate c) then None
           else
             let work = dynamic_work t ~profile c.cid in
             if work <= 0 then None
             else
               let e = estimate t ~in_asic:no_asic c.cid in
               (* Bus energy paid per unit of profiled work: lower is
                  better. *)
               let score = e.energy_j /. float_of_int work in
               Some (c, e, score, work))
  in
  let sorted =
    List.sort
      (fun (_, _, s1, w1) (_, _, s2, w2) ->
        match compare s1 s2 with 0 -> compare w2 w1 | c -> c)
      scored
  in
  List.filteri (fun i _ -> i < n_max) sorted
  |> List.map (fun (c, e, _, _) -> (c, e))

let pp_estimate ppf e =
  Format.fprintf ppf
    "cluster %d: uP->mem %d words, ASIC->mem %d words, E_trans %a" e.cid
    e.n_up_to_mem e.n_asic_to_mem Lp_tech.Units.pp_energy e.energy_j
