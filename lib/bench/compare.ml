module J = Lp_json

let stage_ms doc stage =
  match J.member "stages" doc with
  | Some (J.List rows) ->
      List.find_map
        (fun row ->
          match J.string_field row "name" with
          | Some n when String.equal n stage -> J.float_field row "ms_per_run"
          | _ -> None)
        rows
  | _ -> None

let path doc names field =
  let rec descend doc = function
    | [] -> J.float_field doc field
    | n :: rest -> (
        match J.member n doc with Some d -> descend d rest | None -> None)
  in
  descend doc names

let metrics_of_doc doc =
  let m name v = Option.map (fun v -> (name, v)) v in
  List.filter_map Fun.id
    [
      m "interp_msteps" (path doc [ "sim" ] "interp_msteps");
      m "iss_mips" (path doc [ "sim" ] "iss_mips");
      m "system_mips" (path doc [ "sim" ] "system_mips");
      m "system_sim_ms" (stage_ms doc "system-sim");
      m "full_flow_seq_ms" (stage_ms doc "full-flow-seq");
      m "full_flow_warm_ms" (stage_ms doc "full-flow-warm");
      m "memo_warm_speedup" (path doc [ "flow" ] "memo_warm_speedup");
      m "cand_eval_us" (path doc [ "flow" ] "cand_eval_us");
      m "parallel_speedup_paper"
        (match path doc [ "flow" ] "parallel_speedup_paper" with
        | Some v -> Some v
        | None -> path doc [ "flow" ] "parallel_speedup");
      m "parallel_speedup_corpus" (path doc [ "corpus" ] "parallel_speedup");
      m "corpus_flow_ms" (path doc [ "corpus" ] "total_flow_ms");
      m "service_warm_speedup" (path doc [ "service"; "totals" ] "warm_speedup");
      m "explore_warm_speedup" (path doc [ "explore"; "totals" ] "warm_speedup");
      m "explore_platform_gain"
        (path doc [ "explore"; "platform_sweep" ] "energy_gain");
    ]

type row = {
  metric : string;
  old_v : float option;
  new_v : float option;
  delta_pct : float option;
  failure : string option;
}

type report = { rows : row list; failures : string list }

let check_doc doc =
  let metrics = metrics_of_doc doc in
  List.filter_map
    (fun (g : Gates.gate) ->
      match (List.assoc_opt g.Gates.metric metrics, g.Gates.limit_of doc) with
      | Some v, Some limit ->
          let ok =
            match g.Gates.dir with
            | Gates.Floor -> v >= limit
            | Gates.Ceiling -> v <= limit
          in
          if ok then None
          else
            Some
              (Printf.sprintf "%s: %.4g violates %s %.4g (%s)" g.Gates.metric v
                 (match g.Gates.dir with
                 | Gates.Floor -> "floor"
                 | Gates.Ceiling -> "ceiling")
                 limit g.Gates.why)
      | _ -> None)
    Gates.all

let regress_failure (g : Gates.gate) ~old_v ~new_v =
  match g.Gates.max_regress with
  | None -> None
  | Some f ->
      let ok =
        match g.Gates.dir with
        | Gates.Floor -> new_v >= old_v *. (1.0 -. f)
        | Gates.Ceiling -> new_v <= old_v *. (1.0 +. f)
      in
      if ok then None
      else
        Some
          (Printf.sprintf
             "%s: %.4g -> %.4g regresses past the %+.0f%% allowance (%s)"
             g.Gates.metric old_v new_v
             (match g.Gates.dir with
             | Gates.Floor -> -100.0 *. f
             | Gates.Ceiling -> 100.0 *. f)
             g.Gates.why)

let diff ~old_doc ~new_doc =
  let old_m = metrics_of_doc old_doc in
  let new_m = metrics_of_doc new_doc in
  let names =
    List.map fst old_m
    @ List.filter (fun n -> not (List.mem_assoc n old_m)) (List.map fst new_m)
  in
  let rows =
    List.map
      (fun metric ->
        let old_v = List.assoc_opt metric old_m in
        let new_v = List.assoc_opt metric new_m in
        let delta_pct =
          match (old_v, new_v) with
          | Some o, Some n when Float.abs o > 1e-12 ->
              Some ((n -. o) /. o *. 100.0)
          | _ -> None
        in
        let failure =
          match (Gates.find metric, old_v, new_v) with
          | Some g, Some o, Some n -> regress_failure g ~old_v:o ~new_v:n
          | Some g, Some o, None when Option.is_some g.Gates.max_regress ->
              Some
                (Printf.sprintf
                   "%s: gated metric (old %.4g) is missing from the new run"
                   metric o)
          | _ -> None
        in
        { metric; old_v; new_v; delta_pct; failure })
      names
  in
  let failures =
    List.filter_map (fun r -> r.failure) rows @ check_doc new_doc
  in
  { rows; failures }

let render report =
  let b = Buffer.create 1024 in
  let cell = function Some v -> Printf.sprintf "%12.4g" v | None -> "           -" in
  Buffer.add_string b
    (Printf.sprintf "%-26s %12s %12s %10s\n" "metric" "old" "new" "delta");
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%-26s %s %s %10s%s\n" r.metric (cell r.old_v)
           (cell r.new_v)
           (match r.delta_pct with
           | Some d -> Printf.sprintf "%+.1f%%" d
           | None -> "-")
           (match r.failure with Some _ -> "  FAIL" | None -> "")))
    report.rows;
  (match report.failures with
  | [] -> Buffer.add_string b "all gates pass\n"
  | fs ->
      Buffer.add_string b
        (Printf.sprintf "%d gate failure(s):\n" (List.length fs));
      List.iter (fun f -> Buffer.add_string b ("  - " ^ f ^ "\n")) fs);
  Buffer.contents b
