(* Reporting layer: table rendering, CSV escaping, the paper-table
   shapes, JSON export well-formedness, graphviz export. *)

module Table = Lp_report.Table
module Export = Lp_report.Export
module Flow = Lp_core.Flow

let contains text fragment =
  let n = String.length text and m = String.length fragment in
  let rec go i = i + m <= n && (String.sub text i m = fragment || go (i + 1)) in
  go 0

let test_table_render () =
  let t =
    Table.render ~header:[ "name"; "value" ]
      [ [ "alpha"; "1" ]; [ "beta"; "22" ]; [ "g"; "333" ] ]
  in
  let lines = String.split_on_char '\n' t in
  Alcotest.(check int) "header + rule + rows" 5 (List.length lines);
  (* All lines share the same width. *)
  let widths = List.map String.length lines in
  List.iter
    (fun w ->
      Alcotest.(check bool) "aligned" true (abs (w - List.hd widths) <= 1))
    widths;
  Alcotest.(check bool) "left col left-aligned" true
    (String.length (List.hd lines) > 0 && (List.hd lines).[0] = 'n')

let test_table_pads_short_rows () =
  let t = Table.render ~header:[ "a"; "b"; "c" ] [ [ "x" ] ] in
  Alcotest.(check bool) "renders without exception" true (String.length t > 0)

let test_csv_escaping () =
  let csv =
    Table.render_csv ~header:[ "k"; "v" ]
      [ [ "plain"; "1" ]; [ "with,comma"; "say \"hi\"" ] ]
  in
  Alcotest.(check bool) "comma quoted" true (contains csv "\"with,comma\"");
  Alcotest.(check bool) "quotes doubled" true (contains csv "\"say \"\"hi\"\"\"")

let result () = Flow.run ~name:"digs" (Lp_apps.Digs.program ~width:16 ())

let test_paper_tables_shape () =
  let r = result () in
  let t1 = Lp_report.Paper_tables.table1 [ r ] in
  Alcotest.(check bool) "I row" true (contains t1 "digs I");
  Alcotest.(check bool) "P row" true (contains t1 "digs P");
  let f6 = Lp_report.Paper_tables.fig6 [ r ] in
  Alcotest.(check bool) "fig6 bars" true (contains f6 "#");
  let hw = Lp_report.Paper_tables.hardware_cost [ r ] in
  Alcotest.(check bool) "hw table mentions instances" true (contains hw "mult");
  let detail = Lp_report.Paper_tables.partition_detail r in
  Alcotest.(check bool) "detail mentions SELECTED" true (contains detail "SELECTED")

(* A tiny structural JSON validator: balanced delimiters outside
   strings, no trailing garbage. *)
let json_balanced s =
  let depth = ref 0 in
  let in_str = ref false in
  let escaped = ref false in
  let ok = ref true in
  String.iter
    (fun c ->
      if !in_str then begin
        if !escaped then escaped := false
        else if c = '\\' then escaped := true
        else if c = '"' then in_str := false
      end
      else
        match c with
        | '"' -> in_str := true
        | '{' | '[' -> incr depth
        | '}' | ']' ->
            decr depth;
            if !depth < 0 then ok := false
        | _ -> ())
    s;
  !ok && !depth = 0 && not !in_str

let test_json_export () =
  let r = result () in
  let j = Export.result_json r in
  Alcotest.(check bool) "balanced" true (json_balanced j);
  List.iter
    (fun key -> Alcotest.(check bool) ("has " ^ key) true (contains j ("\"" ^ key ^ "\"")))
    [
      "app"; "energy_saving"; "time_change"; "total_cells"; "initial";
      "partitioned"; "cores"; "up_cycles"; "icache_j";
    ];
  let arr = Lp_json.to_string (Export.results [ r; r ]) in
  Alcotest.(check bool) "array balanced" true (json_balanced arr)

(* The export is the byte contract of `lowpart run --json` and of the
   service's payload: one digest over [result_json] of the six apps,
   "protocol" and "gen:paper:1" at default options, recorded before
   Export built Lp_json values instead of concatenating strings. *)
let test_export_bytes_pinned () =
  let buf = Buffer.create 16384 in
  List.iter
    (fun name ->
      let e = Result.get_ok (Lp_apps.Apps.resolve name) in
      let r = Flow.run ~name:e.Lp_apps.Apps.name (e.Lp_apps.Apps.build ()) in
      Buffer.add_string buf (Export.result_json ~stages:false r))
    (List.map (fun (e : Lp_apps.Apps.entry) -> e.name) Lp_apps.Apps.extended
    @ [ "gen:paper:1" ]);
  Alcotest.(check string) "digest over all payloads"
    "5c55ca2015bd802dfc8668be093f645b"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* JSON has no literal for NaN or infinity: a degenerate ratio must
   still give a document every parser reads, with [null] in its place. *)
let test_export_non_finite () =
  let r =
    { (result ()) with Flow.energy_saving = Float.nan; time_change = Float.infinity }
  in
  match Lp_json.parse (Export.result_json r) with
  | Error msg -> Alcotest.failf "result_json does not parse: %s" msg
  | Ok v ->
      List.iter
        (fun field ->
          Alcotest.(check bool) (field ^ " is null") true
            (Lp_json.member field v = Some Lp_json.Null))
        [ "energy_saving"; "time_change" ]

let test_dfg_dot () =
  let dfg =
    let open Lp_ir.Builder in
    Lp_ir.Dfg.of_segment_exn
      [ (var "a" * var "b") + var "c" ]
      [ store "m" (int 0) (var "a") ]
  in
  let dot = Export.dfg_dot dfg in
  Alcotest.(check bool) "digraph" true (contains dot "digraph");
  Alcotest.(check bool) "mul labelled" true (contains dot "mul");
  Alcotest.(check bool) "store labelled with array" true (contains dot "store[m]");
  Alcotest.(check bool) "has an edge" true (contains dot "->")

let test_chain_dot () =
  let chain = Lp_cluster.Cluster.decompose (Lp_apps.Digs.program ~width:8 ()) in
  let dot = Export.chain_dot chain in
  Alcotest.(check bool) "linear chain edge" true (contains dot "n0 -> n1");
  Alcotest.(check bool) "loop label" true (contains dot "loop")

let test_dot_escaping () =
  Alcotest.(check string) "quotes" "a\\\"b" (Lp_graph.Dot.escape "a\"b");
  Alcotest.(check string) "newline" "a\\nb" (Lp_graph.Dot.escape "a\nb");
  Alcotest.(check string) "backslash" "a\\\\b" (Lp_graph.Dot.escape "a\\b")

let () =
  Alcotest.run "lp_report"
    [
      ( "tables",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "short rows" `Quick test_table_pads_short_rows;
          Alcotest.test_case "csv escaping" `Quick test_csv_escaping;
          Alcotest.test_case "paper tables" `Quick test_paper_tables_shape;
        ] );
      ( "export",
        [
          Alcotest.test_case "json" `Quick test_json_export;
          Alcotest.test_case "bytes pinned" `Quick test_export_bytes_pinned;
          Alcotest.test_case "non-finite floats are null" `Quick
            test_export_non_finite;
          Alcotest.test_case "dfg dot" `Quick test_dfg_dot;
          Alcotest.test_case "chain dot" `Quick test_chain_dot;
          Alcotest.test_case "dot escaping" `Quick test_dot_escaping;
        ] );
    ]
