(* Differential test of the slot-resolved interpreter: [Lp_ir.Interp.run]
   must equal the hash-table reference ([Interp_ref]) on every result
   field, or fail with the same message, on the paper apps, generated
   workloads, random programs (calls, recursion, loops that write their
   own index, undeclared scalars, small fuel) and every runtime error. *)

open Lp_ir
open Ast
module G = QCheck.Gen

type obs =
  ( int list
    * int
    * int array
    * (string * int) list
    * (string * int) list
    * (string * int array) list,
    string )
  result

let guard f : obs =
  match f () with
  | v -> Ok v
  | exception Interp.Runtime_error m -> Error ("runtime error: " ^ m)
  | exception Interp_ref.Runtime_error m -> Error ("runtime error: " ^ m)
  | exception Invalid_argument m -> Error ("invalid argument: " ^ m)

let slot_run ?fuel p =
  guard (fun () ->
      let r = Interp.run ?fuel p in
      Interp.
        ( r.outputs,
          r.steps,
          r.profile,
          r.array_reads,
          r.array_writes,
          r.final_arrays ))

let ref_run ?fuel p =
  guard (fun () ->
      let r = Interp_ref.run ?fuel p in
      Interp_ref.
        ( r.outputs,
          r.steps,
          r.profile,
          r.array_reads,
          r.array_writes,
          r.final_arrays ))

let show : obs -> string = function
  | Error m -> m
  | Ok (out, steps, prof, reads, writes, finals) ->
      Printf.sprintf
        "%d outputs, %d steps, %d profile slots, %d/%d/%d read/write/final \
         arrays"
        (List.length out) steps (Array.length prof) (List.length reads)
        (List.length writes) (List.length finals)

let agree ?fuel p =
  let a = slot_run ?fuel p and b = ref_run ?fuel p in
  (a = b, a, b)

let check_agree ?fuel name p =
  let ok, a, b = agree ?fuel p in
  if not ok then
    Alcotest.failf "%s: slot interpreter gave [%s], reference [%s]" name
      (show a) (show b)

let build spec =
  match Lp_apps.Apps.resolve spec with
  | Ok e -> e.Lp_apps.Apps.build ()
  | Error m -> Alcotest.failf "%s: %s" spec m

let test_apps () =
  List.iter
    (fun (e : Lp_apps.Apps.entry) -> check_agree e.name (e.build ()))
    Lp_apps.Apps.extended

let test_generated () =
  List.iter
    (fun spec -> check_agree spec (build spec))
    [ "gen:paper:1"; "gen:wide:1"; "gen:deep:1" ]

(* --- every runtime error, with its exact message --- *)

let main ?(arrays = []) ?(locals = [ "x" ]) ?(funcs = []) body =
  fst
    (number_program
       {
         arrays;
         funcs = { fname = "main"; params = []; locals; body } :: funcs;
         entry = "main";
       })

let s node = { sid = 0; node }
let a4 = { aname = "a"; size = 4; init = None }

let check_error ?fuel name expected p =
  check_agree ?fuel name p;
  match slot_run ?fuel p with
  | Error m -> Alcotest.(check string) name expected m
  | Ok _ -> Alcotest.failf "%s: expected %S" name expected

let test_errors () =
  check_error "oob load" "runtime error: load a[4] out of bounds (size 4)"
    (main ~arrays:[ a4 ] [ s (Print (Load ("a", Int 4))) ]);
  check_error "oob store" "runtime error: store a[-1] out of bounds (size 4)"
    (main ~arrays:[ a4 ] [ s (Store ("a", Int (-1), Int 7)) ]);
  (* A store evaluates the index, then the value, then checks bounds. *)
  check_error "store value before bounds" "runtime error: division by zero"
    (main ~arrays:[ a4 ] [ s (Store ("a", Int 9, Binop (Div, Int 1, Int 0))) ]);
  check_error "division by zero" "runtime error: division by zero"
    (main [ s (Print (Binop (Div, Int 1, Int 0))) ]);
  check_error "modulo by zero" "runtime error: modulo by zero"
    (main [ s (Print (Binop (Mod, Int 1, Int 0))) ]);
  check_error ~fuel:50 "fuel" "runtime error: fuel exhausted (infinite loop?) at sid 1"
    (main [ s (While (Int 1, [ s (Assign ("x", Int 1)) ])) ]);
  check_error "call depth" "runtime error: call depth exceeded in \"f\""
    (main
       ~funcs:
         [
           {
             fname = "f";
             params = [];
             locals = [];
             body = [ s (Return (Some (Call ("f", [])))) ];
           };
         ]
       [ s (Print (Call ("f", []))) ]);
  (* 256 activations, main included, is the limit. *)
  let countdown k =
    let recurse = Return (Some (Call ("f", [ Binop (Sub, Var "n", Int 1) ]))) in
    let f_body = [ s (If (Var "n", [ s recurse ], [])) ] in
    main
      ~funcs:[ { fname = "f"; params = [ "n" ]; locals = []; body = f_body } ]
      [ s (Print (Call ("f", [ Int k ]))) ]
  in
  check_agree "254 nested calls" (countdown 254);
  check_error "255 nested calls" "runtime error: call depth exceeded in \"f\""
    (countdown 255);
  (* An unknown array fails before its index is evaluated. *)
  check_error "unknown array load" "runtime error: unknown array \"ghost\""
    (main [ s (Print (Load ("ghost", Binop (Div, Int 1, Int 0)))) ]);
  check_error "unknown array store" "runtime error: unknown array \"ghost\""
    (main [ s (Store ("ghost", Binop (Div, Int 1, Int 0), Int 0)) ]);
  (* Arguments are evaluated before the callee is looked up. *)
  check_error "unknown function" "runtime error: call to unknown function \"h\""
    (main [ s (Expr (Call ("h", [ Int 1 ]))) ]);
  check_error "unknown function args first" "runtime error: modulo by zero"
    (main [ s (Expr (Call ("h", [ Binop (Mod, Int 1, Int 0) ]))) ]);
  check_error "unknown entry" "runtime error: call to unknown function \"main\""
    { arrays = []; funcs = []; entry = "main" };
  check_error "undeclared read before write"
    "runtime error: unbound scalar \"u\""
    (main [ s (Print (Var "u")); s (Assign ("u", Int 1)) ]);
  check_error "never-assigned scalar" "runtime error: unbound scalar \"v\""
    (main [ s (Assign ("u", Int 1)); s (Print (Var "v")) ])

let test_undeclared_write_then_read () =
  let p =
    main ~locals:[]
      [
        s (Assign ("u", Int 5));
        s (For ("i", Int 0, Int 3, [ s (Assign ("u", Binop (Add, Var "u", Var "i"))) ]));
        s (Print (Var "u"));
        s (Print (Var "i"));
      ]
  in
  check_agree "write then read" p;
  match slot_run p with
  | Ok (out, _, _, _, _, _) -> Alcotest.(check (list int)) "outputs" [ 8; 3 ] out
  | Error m -> Alcotest.fail m

(* Statements outside the profile (sid -1, as in System's ASIC mini
   programs) still burn fuel and count as steps. *)
let test_negative_sids () =
  let p =
    {
      arrays = [ a4 ];
      funcs =
        [
          {
            fname = "$asic";
            params = [];
            locals = [ "x" ];
            body =
              [
                { sid = -1; node = Assign ("x", Load ("a", Int 1)) };
                { sid = 0; node = Store ("a", Int 2, Binop (Add, Var "x", Int 1)) };
                { sid = -1; node = Store ("a", Int 3, Var "x") };
              ];
          };
        ];
      entry = "$asic";
    }
  in
  check_agree "negative sids" p;
  check_agree ~fuel:2 "negative sids, fuel" p

(* --- random programs --- *)

(* [chaos] programs may also reach the error paths: unknown arrays and
   functions, arity mismatches, unguarded division, unmasked indices and
   the never-assigned scalar "w". Every program reads the undeclared
   scalars "u" and "i", which may or may not be written first. *)

let binops =
  [ Add; Sub; Mul; Div; Mod; And; Or; Xor; Shl; Shr; Lt; Le; Gt; Ge; Eq; Ne ]

(* A weighted choice whose weight-1 entries only [chaos] programs draw. *)
let some_of ~chaos l =
  G.frequencyl (List.filter (fun (w, _) -> chaos || w > 1) l)

let scalars = [ (12, "x"); (12, "y"); (12, "t"); (2, "u"); (2, "i"); (1, "w") ]

let rec gexpr ~chaos ~calls d =
  let leaf =
    G.oneof
      [
        G.map (fun n -> Int n) (G.int_range (-20) 20);
        G.map (fun v -> Var v) (some_of ~chaos scalars);
      ]
  in
  if d <= 0 then leaf
  else
    let sub = gexpr ~chaos ~calls (d - 1) in
    let masked = G.map (fun i -> Binop (And, i, Int 3)) sub in
    let binop op a b =
      match op with
      | (Div | Mod) when not chaos -> Binop (op, a, Binop (Or, b, Int 1))
      | _ -> Binop (op, a, b)
    in
    let call =
      G.frequency
        [
          (4, G.map2 (fun a b -> Call ("f", [ a; b ])) sub sub);
          (4, G.map (fun a -> Call ("g", [ Binop (And, a, Int 7) ])) sub);
          ((if chaos then 1 else 0), G.map (fun a -> Call ("f", [ a ])) sub);
          ((if chaos then 1 else 0), G.map (fun a -> Call ("h", [ a ])) sub);
        ]
      |> G.map (function Call (f, _) when not (List.mem f calls) -> Int 0 | e -> e)
    in
    G.frequency
      [
        (3, leaf);
        (4, G.map3 binop (G.oneofl binops) sub sub);
        (1, G.map2 (fun op a -> Unop (op, a)) (G.oneofl [ Neg; Bnot; Lnot ]) sub);
        ( 2,
          G.map2
            (fun a i -> Load (a, i))
            (some_of ~chaos [ (8, "a"); (4, "b"); (1, "ghost") ])
            (if chaos then G.frequency [ (6, masked); (1, sub) ] else masked) );
        ((if calls = [] then 0 else 1), call);
      ]

let rec gstmt ~chaos ~calls ~targets d =
  let e = gexpr ~chaos ~calls 2 in
  let idx = G.map (fun i -> Binop (And, i, Int 3)) e in
  let simple =
    [
      (4, G.map2 (fun v e -> Assign (v, e)) (G.oneofl targets) e);
      ( 2,
        G.map3
          (fun a i v -> Store (a, i, v))
          (G.oneofl [ "a"; "b" ])
          (if chaos then G.frequency [ (6, idx); (1, e) ] else idx)
          e );
      (2, G.map (fun e -> Print e) e);
      (1, G.map (fun e -> Expr e) e);
    ]
  in
  let nested () =
    let block = G.list_size (G.int_range 0 3) (gstmt ~chaos ~calls ~targets (d - 1)) in
    [
      (2, G.map3 (fun c t e -> If (c, t, e)) e block block);
      (* "i", "t" and "u" are also assignment targets, so a body may
         write its own loop variable; a computed bound may read scalars
         the body writes, or count array reads. *)
      ( 3,
        G.map3
          (fun v hi b -> For (v, Int 0, hi, b))
          (G.oneofl [ "i"; "t"; "u" ])
          (G.oneof
             [
               G.map (fun k -> Int k) (G.int_range 0 6);
               G.map (fun e -> Binop (And, e, Int 7)) e;
             ])
          block );
      ( 1,
        G.map2
          (fun k b ->
            While
              ( Binop (Lt, Var "y", Int k),
                b @ [ s (Assign ("y", Binop (Add, Var "y", Int 1))) ] ))
          (G.int_range 0 4) block );
      (1, G.oneof [ G.map (fun e -> Return (Some e)) e; G.return (Return None) ]);
    ]
  in
  G.map s (G.frequency (if d <= 0 then simple else simple @ nested ()))

let gbody ~chaos ~calls ~targets =
  G.list_size (G.int_range 2 8) (gstmt ~chaos ~calls ~targets 2)

let rec mark_sids keep s =
  let blk = List.map (mark_sids keep) in
  let node =
    match s.node with
    | If (c, t, e) -> If (c, blk t, blk e)
    | While (c, b) -> While (c, blk b)
    | For (v, lo, hi, b) -> For (v, lo, hi, blk b)
    | n -> n
  in
  { sid = (if keep s.sid then s.sid else -1); node }

let program_gen =
  let open G in
  let* chaos = frequency [ (3, return false); (1, return true) ] in
  let all = [ "x"; "y"; "t"; "u"; "i" ] in
  let* main_body = gbody ~chaos ~calls:[ "f"; "g"; "h" ] ~targets:all in
  let* f_body = gbody ~chaos ~calls:[ "g" ] ~targets:all in
  let* g_body = gbody ~chaos ~calls:[] ~targets:[ "y"; "t"; "u"; "i" ] in
  let* f_ret = gexpr ~chaos ~calls:[ "g" ] 2 in
  let* shadow = bool in
  let* init = array_size (return 8) int in
  let* dup =
    frequency [ (5, return []); (1, return [ { a4 with aname = "b"; size = 2 } ]) ]
  in
  let* unmark = int_range 0 4 in
  let* fuel = frequency [ (4, return 100_000); (1, int_range 0 300) ] in
  let x_minus_1 = Binop (Sub, Var "x", Int 1) in
  let g =
    {
      fname = "g";
      params = [ "x" ];
      locals = [ "y"; "t" ];
      body =
        (s (If (Binop (Le, Var "x", Int 0), [ s (Return (Some (Var "y"))) ], []))
        :: g_body)
        @ [ s (Return (Some (Binop (Add, Call ("g", [ x_minus_1 ]), Var "t")))) ];
    }
  in
  let f =
    {
      fname = "f";
      params = [ "x"; "y" ];
      locals = (if shadow then [ "t"; "y" ] else [ "t" ]);
      body = f_body @ [ s (Return (Some f_ret)) ];
    }
  in
  let main =
    { fname = "main"; params = []; locals = [ "x"; "y"; "t" ]; body = main_body }
  in
  let p, _ =
    number_program
      {
        arrays =
          { aname = "a"; size = 8; init = Some init }
          :: { aname = "b"; size = 4; init = None }
          :: dup;
        funcs = [ main; f; g ];
        entry = "main";
      }
  in
  (* Some statements leave the profile (sid -1), as in System's ASIC
     mini programs. *)
  let keep sid = unmark = 0 || sid mod 5 <> unmark in
  let unmark fn = { fn with body = List.map (mark_sids keep) fn.body } in
  return ({ p with funcs = List.map unmark p.funcs }, fuel)

let qcheck_random =
  QCheck.Test.make ~count:500 ~name:"random programs: slot = reference"
    (QCheck.make
       ~print:(fun (p, fuel) ->
         Printf.sprintf "fuel %d\n%s" fuel (Printer.program_to_string p))
       program_gen)
    (fun (p, fuel) ->
      let ok, a, b = agree ~fuel p in
      if not ok then
        QCheck.Test.fail_reportf "slot interpreter [%s], reference [%s]"
          (show a) (show b);
      true)

let () =
  Alcotest.run "interp"
    [
      ( "differential",
        [
          Alcotest.test_case "paper apps + protocol" `Quick test_apps;
          Alcotest.test_case "gen paper/wide/deep" `Quick test_generated;
          Alcotest.test_case "runtime errors" `Quick test_errors;
          Alcotest.test_case "undeclared write then read" `Quick
            test_undeclared_write_then_read;
          Alcotest.test_case "negative sids" `Quick test_negative_sids;
          QCheck_alcotest.to_alcotest qcheck_random;
        ] );
    ]
