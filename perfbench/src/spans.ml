(* Self time per span name from an in-memory trace: a span's duration
   minus the part of it its direct child spans (same domain, opened
   inside it) cover. Spans nest LIFO within a domain, so one stack per
   domain pairs every Begin with its End. *)

type row = {
  name : string;
  count : int;
  total_s : float;
  self_s : float;
}

type frame = { f_name : string; t0 : float; mutable child_s : float }

let self_times (events : Lp_trace.event list) =
  let stacks : (int, frame list) Hashtbl.t = Hashtbl.create 4 in
  let rows : (string, row) Hashtbl.t = Hashtbl.create 32 in
  let add name dt self =
    let r =
      Option.value (Hashtbl.find_opt rows name)
        ~default:{ name; count = 0; total_s = 0.0; self_s = 0.0 }
    in
    Hashtbl.replace rows name
      {
        r with
        count = r.count + 1;
        total_s = r.total_s +. dt;
        self_s = r.self_s +. self;
      }
  in
  List.iter
    (fun (e : Lp_trace.event) ->
      let stack = Option.value (Hashtbl.find_opt stacks e.dom) ~default:[] in
      match e.ph with
      | Lp_trace.Begin ->
          Hashtbl.replace stacks e.dom
            ({ f_name = e.name; t0 = e.ts_s; child_s = 0.0 } :: stack)
      | Lp_trace.End -> (
          match stack with
          | f :: rest when f.f_name = e.name ->
              let dt = e.ts_s -. f.t0 in
              (match rest with p :: _ -> p.child_s <- p.child_s +. dt | [] -> ());
              add f.f_name dt (dt -. f.child_s);
              Hashtbl.replace stacks e.dom rest
          | _ -> ())
      | Lp_trace.Counter -> ())
    events;
  Hashtbl.fold (fun _ r acc -> r :: acc) rows []
  |> List.sort (fun a b -> Float.compare b.self_s a.self_s)

(* Sum and sample count of every counter. *)
let counters (events : Lp_trace.event list) =
  let tbl : (string, int * int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (e : Lp_trace.event) ->
      if e.ph = Lp_trace.Counter then
        let s, n = Option.value (Hashtbl.find_opt tbl e.name) ~default:(0, 0) in
        Hashtbl.replace tbl e.name (s + e.value, n + 1))
    events;
  Hashtbl.fold (fun k (s, n) acc -> (k, s, n) :: acc) tbl [] |> List.sort compare

let write_events path events =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun e ->
          output_string oc (Lp_trace.event_json e);
          output_char oc '\n')
        events)
