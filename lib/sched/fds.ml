module Dfg = Lp_ir.Dfg
module Resource = Lp_tech.Resource

(* Cheapest executable kind (and its latency) per operation — the same
   smallest-first policy as the rest of the flow. *)
let kind_of dfg v =
  match Resource.candidates (Dfg.op dfg v) with
  | [] -> invalid_arg "Fds: operation with no resource"
  | (k, lat) :: _ -> (k, lat)

let min_latency dfg =
  Array.fold_left max 0
    (Dfg.longest_to_sinks dfg ~weight:(fun v -> snd (kind_of dfg v)))

let schedule dfg ~latency =
  let n = Dfg.node_count dfg in
  if n = 0 then
    Some { Sched.dfg; start = [||]; kind = [||]; latency = [||]; length = 0 }
  else if latency < min_latency dfg then None
  else begin
    let kind = Array.init n (fun v -> fst (kind_of dfg v)) in
    let lat = Array.init n (fun v -> snd (kind_of dfg v)) in
    let weight v = lat.(v) in
    (* Mobility windows, updated as operations are fixed. *)
    let asap = Dfg.longest_from_sources dfg ~weight in
    let to_leaves = Dfg.longest_to_sinks dfg ~weight in
    let alap = Array.init n (fun v -> latency - to_leaves.(v)) in
    let fixed = Array.make n false in
    (* Distribution graph per kind: expected occupancy per step. *)
    let dg = Hashtbl.create 8 in
    let dg_of k =
      match Hashtbl.find_opt dg k with
      | Some a -> a
      | None ->
          let a = Array.make latency 0.0 in
          Hashtbl.add dg k a;
          a
    in
    let add_distribution sign v =
      let w = alap.(v) - asap.(v) + 1 in
      let p = sign /. float_of_int w in
      let a = dg_of kind.(v) in
      for t0 = asap.(v) to alap.(v) do
        for s = t0 to min (latency - 1) (t0 + lat.(v) - 1) do
          a.(s) <- a.(s) +. p
        done
      done
    in
    for v = 0 to n - 1 do
      add_distribution 1.0 v
    done;
    (* Force of placing v at t: occupancy above the window average. *)
    let force v t =
      let a = dg_of kind.(v) in
      let occupancy t0 =
        let acc = ref 0.0 in
        for s = t0 to min (latency - 1) (t0 + lat.(v) - 1) do
          acc := !acc +. a.(s)
        done;
        !acc
      in
      let w = alap.(v) - asap.(v) + 1 in
      let avg = ref 0.0 in
      for t0 = asap.(v) to alap.(v) do
        avg := !avg +. occupancy t0
      done;
      occupancy t -. (!avg /. float_of_int w)
    in
    (* Constraint propagation after fixing v at t. *)
    let succ = dfg.Dfg.succ and succ_off = dfg.Dfg.succ_off in
    let pred = dfg.Dfg.pred and pred_off = dfg.Dfg.pred_off in
    let rec tighten_succs v =
      for e = succ_off.(v) to succ_off.(v + 1) - 1 do
        let w = succ.(e) in
        if not fixed.(w) then begin
          let lb = asap.(v) + lat.(v) in
          if lb > asap.(w) then begin
            add_distribution (-1.0) w;
            asap.(w) <- lb;
            add_distribution 1.0 w;
            tighten_succs w
          end
        end
      done
    and tighten_preds v =
      for e = pred_off.(v) to pred_off.(v + 1) - 1 do
        let u = pred.(e) in
        if not fixed.(u) then begin
          let ub = alap.(v) - lat.(u) in
          if ub < alap.(u) then begin
            add_distribution (-1.0) u;
            alap.(u) <- ub;
            add_distribution 1.0 u;
            tighten_preds u
          end
        end
      done
    in
    (* Fix one operation per round: the (op, step) pair of least force
       among the ops with the smallest remaining mobility (ties by id
       for determinism). *)
    for _round = 1 to n do
      let best = ref None in
      for v = 0 to n - 1 do
        if not fixed.(v) then
          for t = asap.(v) to alap.(v) do
            let f = force v t in
            match !best with
            | Some (_, _, f') when f' <= f -> ()
            | _ -> best := Some (v, t, f)
          done
      done;
      match !best with
      | None -> ()
      | Some (v, t, _) ->
          add_distribution (-1.0) v;
          asap.(v) <- t;
          alap.(v) <- t;
          add_distribution 1.0 v;
          fixed.(v) <- true;
          tighten_succs v;
          tighten_preds v
    done;
    let start = Array.copy asap in
    let length =
      Array.to_list (Array.init n (fun v -> start.(v) + lat.(v)))
      |> List.fold_left max 0
    in
    Some { Sched.dfg; start; kind; latency = lat; length }
  end
