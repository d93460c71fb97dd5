(* Goldens recorded at seed 1: what every checked operation must still
   produce. Flows are keyed by program name; paper apps do not depend on
   the seed, so their goldens apply at every seed, while a generated
   program is checked only at the seed it was recorded at (elsewhere the
   flow's own Verify and the service/direct byte comparison stand in). *)

module J = Lp_json
module Flow = Lp_core.Flow

type flow = {
  energy_saving : float;
  time_change : float;
  selected : int list;  (** cluster ids of the chosen partition *)
  i_cycles : int;  (** total cycles of the initial design *)
  p_cycles : int;  (** total cycles of the partitioned design *)
}

type t = {
  flows : (string * flow) list;
  payloads : (string * string) list;  (** service [run] payload MD5s *)
}

let empty = { flows = []; payloads = [] }

let of_result (r : Flow.result) =
  {
    energy_saving = r.Flow.energy_saving;
    time_change = r.Flow.time_change;
    selected =
      List.map
        (fun (s : Flow.selected) ->
          s.Flow.candidate.Lp_core.Candidate.cluster.Lp_cluster.Cluster.cid)
        r.Flow.selected;
    i_cycles = Lp_system.System.total_cycles r.Flow.initial;
    p_cycles = Lp_system.System.total_cycles r.Flow.partitioned;
  }

let payload_digest payload = Digest.to_hex (Digest.string payload)

(* Floats may move in their last bits when a later change reorders a
   summation; anything beyond that is a different answer. *)
let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs a)
let ints l = "[" ^ String.concat "," (List.map string_of_int l) ^ "]"

let diff_flow ~name (g : flow) (f : flow) =
  let bad =
    List.filter_map Fun.id
      [
        (if close g.energy_saving f.energy_saving then None
         else
           Some
             (Printf.sprintf "energy_saving %.17g, golden %.17g" f.energy_saving
                g.energy_saving));
        (if close g.time_change f.time_change then None
         else
           Some
             (Printf.sprintf "time_change %.17g, golden %.17g" f.time_change
                g.time_change));
        (if g.selected = f.selected then None
         else
           Some
             (Printf.sprintf "selected %s, golden %s" (ints f.selected)
                (ints g.selected)));
        (if g.i_cycles = f.i_cycles then None
         else Some (Printf.sprintf "I cycles %d, golden %d" f.i_cycles g.i_cycles));
        (if g.p_cycles = f.p_cycles then None
         else Some (Printf.sprintf "P cycles %d, golden %d" f.p_cycles g.p_cycles));
      ]
  in
  match bad with
  | [] -> None
  | _ -> Some (Printf.sprintf "%s: %s" name (String.concat "; " bad))

(* [None] when the result matches its golden or no golden exists. *)
let check_flow t ~name r =
  match List.assoc_opt name t.flows with
  | None -> None
  | Some g -> diff_flow ~name g (of_result r)

let check_payload t ~name payload =
  match List.assoc_opt name t.payloads with
  | None -> None
  | Some d ->
      let got = payload_digest payload in
      if got = d then None
      else Some (Printf.sprintf "%s: payload md5 %s, golden %s" name got d)

(* --- file format --------------------------------------------------- *)

(* Floats are stored as %.17g strings: the JSON printer keeps only six
   significant digits. *)
let flow_json f =
  J.Assoc
    [
      ("energy_saving", J.String (Printf.sprintf "%.17g" f.energy_saving));
      ("time_change", J.String (Printf.sprintf "%.17g" f.time_change));
      ("selected", J.List (List.map (fun c -> J.Int c) f.selected));
      ("i_cycles", J.Int f.i_cycles);
      ("p_cycles", J.Int f.p_cycles);
    ]

let to_json t =
  J.Assoc
    [
      ("schema", J.String "perfbench-goldens/1");
      ("seed", J.Int 1);
      ("flows", J.Assoc (List.map (fun (n, f) -> (n, flow_json f)) t.flows));
      ( "payloads",
        J.Assoc (List.map (fun (n, d) -> (n, J.String d)) t.payloads) );
    ]

let flow_of_json j =
  let fl k = Option.bind (J.string_field j k) float_of_string_opt in
  let int k = J.int_field j k in
  match
    ( fl "energy_saving",
      fl "time_change",
      Option.bind (J.member "selected" j) J.to_list_opt,
      int "i_cycles",
      int "p_cycles" )
  with
  | Some energy_saving, Some time_change, Some sel, Some i_cycles, Some p_cycles
    ->
      Some
        {
          energy_saving;
          time_change;
          selected = List.filter_map J.to_int_opt sel;
          i_cycles;
          p_cycles;
        }
  | _ -> None

let of_json j =
  let assoc k = Option.bind (J.member k j) J.to_assoc_opt in
  match (assoc "flows", assoc "payloads") with
  | Some flows, Some payloads ->
      let flows =
        List.map
          (fun (n, fj) ->
            match flow_of_json fj with
            | Some f -> (n, f)
            | None -> failwith ("malformed golden flow " ^ n))
          flows
      in
      let payloads =
        List.map
          (fun (n, d) ->
            match J.to_string_opt d with
            | Some d -> (n, d)
            | None -> failwith ("malformed golden payload " ^ n))
          payloads
      in
      { flows; payloads }
  | _ -> failwith "goldens: missing flows/payloads"

let load path = of_json (J.of_string (In_channel.with_open_bin path In_channel.input_all))

let save path t =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (J.to_string (to_json t));
      output_char oc '\n')
