module Digraph = Lp_graph.Digraph
module Gen = QCheck.Gen

let graph_of_spec ~forward_only (n, edge_seeds) =
  let g = Digraph.create () in
  ignore (Digraph.add_nodes g n);
  List.iter
    (fun (a, b) ->
      let u = a mod n and v = b mod n in
      if forward_only then (
        if u < v then Digraph.add_edge g u v
        else if v < u then Digraph.add_edge g v u)
      else if u <> v then Digraph.add_edge g u v)
    edge_seeds;
  g

let spec_gen =
  Gen.(
    pair (int_range 1 40)
      (list_size (int_range 0 80) (pair (int_range 0 1000) (int_range 0 1000))))

let dag_gen = Gen.map (graph_of_spec ~forward_only:true) spec_gen
let digraph_gen = Gen.map (graph_of_spec ~forward_only:false) spec_gen

let print_graph g = Format.asprintf "%a" Digraph.pp g

let dag_arbitrary = QCheck.make ~print:print_graph dag_gen
let digraph_arbitrary = QCheck.make ~print:print_graph digraph_gen

open Lp_ir.Ast

let leaf_gen ~vars =
  Gen.(
    oneof
      [
        map (fun n -> Int (Lp_ir.Word.norm n)) (int_range (-1000) 1000);
        map (fun i -> Var (List.nth vars (i mod List.length vars))) small_nat;
      ])

let rec sized_expr ~vars ~arrays n =
  if n <= 0 then leaf_gen ~vars
  else
    Gen.(
      let sub = sized_expr ~vars ~arrays (n / 2) in
      let binop =
        oneofl
          [ Add; Sub; Mul; And; Or; Xor; Shl; Shr; Lt; Le; Gt; Ge; Eq; Ne ]
      in
      let arith = map3 (fun op a b -> Binop (op, a, b)) binop sub sub in
      let guarded_div =
        map3
          (fun op a b -> Binop (op, a, Binop (Or, b, Int 1)))
          (oneofl [ Div; Mod ])
          sub sub
      in
      let unop =
        map2 (fun op e -> Unop (op, e)) (oneofl [ Neg; Bnot; Lnot ]) sub
      in
      let load =
        match arrays with
        | [] -> arith
        | _ ->
            let* idx = int_range 0 (List.length arrays - 1) in
            let name, size = List.nth arrays idx in
            map (fun i -> Load (name, Binop (And, i, Int (size - 1)))) sub
      in
      frequency
        [ (3, arith); (1, guarded_div); (1, unop); (2, load); (2, leaf_gen ~vars) ])

let expr_gen ~vars ~arrays = sized_expr ~vars ~arrays 6

let stmt_gen ~vars ~arrays =
  Gen.(
    let expr = expr_gen ~vars ~arrays in
    let assign =
      map2
        (fun i e -> { sid = -1; node = Assign (List.nth vars (i mod List.length vars), e) })
        small_nat expr
    in
    let store_stmt =
      match arrays with
      | [] -> assign
      | _ ->
          let* idx = int_range 0 (List.length arrays - 1) in
          let name, size = List.nth arrays idx in
          map2
            (fun i v ->
              { sid = -1; node = Store (name, Binop (And, i, Int (size - 1)), v) })
            expr expr
    in
    let print_stmt = map (fun e -> { sid = -1; node = Print e }) expr in
    frequency [ (4, assign); (2, store_stmt); (1, print_stmt) ])

let block_gen ~vars ~arrays =
  Gen.list_size (Gen.int_range 1 8) (stmt_gen ~vars ~arrays)

let program_gen =
  let vars = [ "a"; "b"; "c"; "d" ] in
  let arrays = [ ("m", 16) ] in
  Gen.(
    let block = block_gen ~vars ~arrays in
    let compound =
      oneof
        [
          (* bounded loop *)
          (let* lo = int_range 0 3 in
           let* count = int_range 0 6 in
           map
             (fun body ->
               { sid = -1; node = For ("i", Int lo, Int (lo + count), body) })
             block);
          (* branch *)
          map3
            (fun c t e -> { sid = -1; node = If (c, t, e) })
            (expr_gen ~vars ~arrays) block block;
        ]
    in
    let* prologue =
      return (List.map (fun v -> { sid = -1; node = Assign (v, Int 0) }) vars)
    in
    let* pieces = list_size (int_range 1 5) (oneof [ block; map (fun s -> [ s ]) compound ]) in
    let* epilogue = return [ { sid = -1; node = Print (Var "a") } ] in
    let body = prologue @ List.concat pieces @ epilogue in
    return
      (Lp_ir.Builder.program
         ~arrays:(List.map (fun (n, s) -> Lp_ir.Builder.array n s) arrays)
         [ { fname = "main"; params = []; locals = vars; body } ]))

let print_program p = Lp_ir.Printer.program_to_string p

let program_arbitrary = QCheck.make ~print:print_program program_gen

let check_outputs what ~expected ~actual =
  Alcotest.(check (list int)) what expected actual

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all with Sys_error _ -> ""

let corrupt_each_byte path ~expected ~rerun =
  let orig = read_file path in
  let check label bytes =
    Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
    let got = rerun () in
    if not (String.equal got expected) then
      Alcotest.failf "%s, %s: the result changed" path label;
    if not (String.equal (read_file path) orig) then
      Alcotest.failf "%s, %s: the entry was not rewritten" path label
  in
  String.iteri
    (fun i c ->
      let b = Bytes.of_string orig in
      Bytes.set b i (Char.chr (Char.code c lxor (1 lsl (i mod 8))));
      check (Printf.sprintf "bit flipped in byte %d" i) (Bytes.to_string b))
    orig;
  for n = 0 to String.length orig - 1 do
    check (Printf.sprintf "truncated to %d bytes" n) (String.sub orig 0 n)
  done
