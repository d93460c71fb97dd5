(* Lp_json: parser/printer round-trip properties, error handling, and
   the schema lock on Lp_report.Export — the service's client re-prints
   the payload it parsed, so printed Export values must parse back and
   print again byte-identically. *)

module J = Lp_json

let json_testable =
  Alcotest.testable (fun ppf v -> Format.pp_print_string ppf (J.to_string v)) J.equal

(* --- unit: parsing ------------------------------------------------ *)

let test_literals () =
  Alcotest.(check json_testable) "null" J.Null (J.of_string "null");
  Alcotest.(check json_testable) "true" (J.Bool true) (J.of_string "true");
  Alcotest.(check json_testable) "false" (J.Bool false) (J.of_string " false ");
  Alcotest.(check json_testable) "int" (J.Int 42) (J.of_string "42");
  Alcotest.(check json_testable) "negative" (J.Int (-7)) (J.of_string "-7");
  Alcotest.(check json_testable) "float" (J.Float 1.5) (J.of_string "1.5");
  Alcotest.(check json_testable)
    "exponent" (J.Float 1.5e-7)
    (J.of_string "1.5e-07");
  Alcotest.(check json_testable)
    "int-valued exponent is a float" (J.Float 1e6) (J.of_string "1e+06");
  Alcotest.(check json_testable) "string" (J.String "hi") (J.of_string "\"hi\"");
  Alcotest.(check json_testable)
    "array"
    (J.List [ J.Int 1; J.Int 2 ])
    (J.of_string "[1, 2]");
  Alcotest.(check json_testable) "empty array" (J.List []) (J.of_string "[ ]");
  Alcotest.(check json_testable) "empty object" (J.Assoc []) (J.of_string "{}");
  Alcotest.(check json_testable)
    "object"
    (J.Assoc [ ("a", J.Int 1); ("b", J.List [ J.Null ]) ])
    (J.of_string "{\"a\":1,\"b\":[null]}")

let test_escapes () =
  Alcotest.(check json_testable)
    "simple escapes"
    (J.String "a\"b\\c\nd\te")
    (J.of_string "\"a\\\"b\\\\c\\nd\\te\"");
  Alcotest.(check json_testable)
    "unicode escape (ASCII)" (J.String "A") (J.of_string "\"\\u0041\"");
  Alcotest.(check json_testable)
    "unicode escape (2-byte UTF-8)"
    (J.String "\xc3\xa9")
    (J.of_string "\"\\u00e9\"");
  Alcotest.(check json_testable)
    "surrogate pair"
    (J.String "\xf0\x9d\x84\x9e")
    (J.of_string "\"\\ud834\\udd1e\"");
  (* Control bytes print as \u00XX and parse back. *)
  Alcotest.(check string)
    "control bytes reprint" "\"\\u0001\\n\""
    (J.to_string (J.String "\x01\n"))

let expect_error what s =
  match J.of_string s with
  | v -> Alcotest.failf "%s: expected Parse_error, got %s" what (J.to_string v)
  | exception J.Parse_error _ -> ()

let test_errors () =
  List.iter
    (fun (what, s) -> expect_error what s)
    [
      ("empty", "");
      ("garbage", "wibble");
      ("trailing", "1 2");
      ("bad literal", "nul");
      ("unterminated string", "\"abc");
      ("unterminated array", "[1,");
      ("unterminated object", "{\"a\":1");
      ("missing colon", "{\"a\" 1}");
      ("raw control byte", "\"a\x01b\"");
      ("bare minus", "-");
      ("dot without digits", "1.e");
      ("lone high surrogate", "\"\\ud834x\"");
    ];
  Alcotest.(check bool)
    "parse returns Error" true
    (match J.parse "[" with Error _ -> true | Ok _ -> false)

let test_accessors () =
  let v = J.of_string "{\"a\":1,\"b\":2.5,\"c\":\"x\",\"d\":true,\"e\":[1]}" in
  Alcotest.(check (option int)) "int field" (Some 1) (J.int_field v "a");
  Alcotest.(check (option (float 0.0))) "float field" (Some 2.5) (J.float_field v "b");
  Alcotest.(check (option (float 0.0)))
    "int coerces to float" (Some 1.0) (J.float_field v "a");
  Alcotest.(check (option string)) "string field" (Some "x") (J.string_field v "c");
  Alcotest.(check (option bool)) "bool field" (Some true) (J.bool_field v "d");
  Alcotest.(check (option int)) "absent" None (J.int_field v "zzz");
  Alcotest.(check (option int)) "wrong type" None (J.int_field v "c");
  Alcotest.(check bool)
    "member of non-object" true
    (J.member "a" (J.Int 3) = None);
  Alcotest.(check (option int))
    "integral float as int" (Some 3)
    (J.to_int_opt (J.Float 3.0));
  Alcotest.(check (option int)) "fractional float is not an int" None
    (J.to_int_opt (J.Float 3.5))

let test_equal () =
  Alcotest.(check bool)
    "numbers compare by value" true
    (J.equal (J.Int 2) (J.Float 2.0));
  Alcotest.(check bool)
    "object order-insensitive" true
    (J.equal
       (J.of_string "{\"a\":1,\"b\":2}")
       (J.of_string "{\"b\":2,\"a\":1}"));
  Alcotest.(check bool)
    "array order-sensitive" false
    (J.equal (J.of_string "[1,2]") (J.of_string "[2,1]"))

let test_big_numbers () =
  (* Out of int range falls back to float rather than failing. *)
  (match J.of_string "123456789012345678901234567890" with
  | J.Float _ -> ()
  | v -> Alcotest.failf "expected Float, got %s" (J.to_string v));
  Alcotest.(check json_testable) "1e308" (J.Float 1e308) (J.of_string "1e308");
  Alcotest.(check string)
    "non-finite prints null" "null"
    (J.to_string (J.Float Float.infinity))

(* --- qcheck round trips ------------------------------------------- *)

(* Floats are canonicalised through the printer's own %.6g so the
   generator only produces values the compact format can represent
   exactly; that makes parse . print the identity (up to JSON's
   int/float ambiguity, which [J.equal] absorbs). *)
let canon_float x = float_of_string (Printf.sprintf "%.6g" x)

let gen_json =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun n -> J.Int n) int;
        map
          (fun x -> J.Float (canon_float x))
          (oneof [ float; map (fun x -> x *. 1e-9) float ]);
        map (fun s -> J.String s) (string_size ~gen:char (0 -- 20));
      ]
  in
  let dedup_fields fields =
    let seen = Hashtbl.create 8 in
    List.filter
      (fun (k, _) ->
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      fields
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then scalar
         else
           frequency
             [
               (2, scalar);
               ( 1,
                 map (fun l -> J.List l) (list_size (0 -- 4) (self (n / 2))) );
               ( 1,
                 map
                   (fun l -> J.Assoc (dedup_fields l))
                   (list_size (0 -- 4)
                      (pair (string_size ~gen:printable (0 -- 8)) (self (n / 2))))
               );
             ])

let arbitrary_json =
  QCheck.make ~print:(fun v -> J.to_string v) gen_json

let prop_round_trip =
  QCheck.Test.make ~count:500 ~name:"parse (print v) = v" arbitrary_json
    (fun v -> J.equal (J.of_string (J.to_string v)) v)

let prop_print_stable =
  (* Byte idempotence: printing a parsed document reproduces it. This
     is the property the service leans on for byte-identical run
     payloads. *)
  QCheck.Test.make ~count:500 ~name:"print (parse (print v)) = print v"
    arbitrary_json (fun v ->
      let s = J.to_string v in
      String.equal (J.to_string (J.of_string s)) s)

(* --- the Export schema lock --------------------------------------- *)

let seq_options =
  { Lp_core.Flow.default_options with Lp_core.Flow.jobs = 1 }

let results =
  lazy
    (List.map
       (fun (e : Lp_apps.Apps.entry) ->
         Lp_core.Flow.run ~options:seq_options ~name:e.Lp_apps.Apps.name
           (e.Lp_apps.Apps.build ()))
       Lp_apps.Apps.all)

let test_export_parses () =
  List.iter
    (fun (r : Lp_core.Flow.result) ->
      let s = Lp_report.Export.result_json r in
      match J.parse s with
      | Error msg -> Alcotest.failf "%s: result_json does not parse: %s" r.Lp_core.Flow.name msg
      | Ok v ->
          Alcotest.(check (option string))
            (r.Lp_core.Flow.name ^ ": app field")
            (Some r.Lp_core.Flow.name) (J.string_field v "app");
          List.iter
            (fun field ->
              if J.member field v = None then
                Alcotest.failf "%s: missing %S" r.Lp_core.Flow.name field)
            [
              "energy_saving";
              "time_change";
              "total_cells";
              "clusters";
              "preselected";
              "candidates";
              "selected";
              "initial";
              "partitioned";
              "cores";
            ];
          List.iter
            (fun design ->
              let d = Option.get (J.member design v) in
              if J.float_field d "total_j" = None then
                Alcotest.failf "%s: %s lacks total_j" r.Lp_core.Flow.name design)
            [ "initial"; "partitioned" ])
    (Lazy.force results)

let test_export_byte_stable () =
  List.iter
    (fun (r : Lp_core.Flow.result) ->
      let s = Lp_report.Export.result_json r in
      Alcotest.(check string)
        (r.Lp_core.Flow.name ^ ": parse/print is the identity on Export output")
        s
        (J.to_string (J.of_string s));
      let report =
        J.to_string (Lp_report.Export.report r.Lp_core.Flow.initial)
      in
      Alcotest.(check string)
        (r.Lp_core.Flow.name ^ ": printed report is byte-stable")
        report
        (J.to_string (J.of_string report)))
    (Lazy.force results)

let test_results_json_parses () =
  let s = J.to_string (Lp_report.Export.results (Lazy.force results)) in
  match J.of_string s with
  | J.List items ->
      Alcotest.(check int)
        "one element per app"
        (List.length Lp_apps.Apps.all)
        (List.length items)
  | v -> Alcotest.failf "results is not an array: %s" (J.to_string v)

let () =
  Alcotest.run "json"
    [
      ( "parse",
        [
          Alcotest.test_case "literals" `Quick test_literals;
          Alcotest.test_case "escapes" `Quick test_escapes;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "accessors" `Quick test_accessors;
          Alcotest.test_case "equal" `Quick test_equal;
          Alcotest.test_case "big numbers" `Quick test_big_numbers;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_round_trip; prop_print_stable ] );
      ( "export",
        [
          Alcotest.test_case "result_json parses" `Quick test_export_parses;
          Alcotest.test_case "byte-stable" `Quick test_export_byte_stable;
          Alcotest.test_case "results_json" `Quick test_results_json_parses;
        ] );
    ]
