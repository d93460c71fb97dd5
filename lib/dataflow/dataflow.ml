open Lp_ir.Ast
module Sset = Set.Make (String)

type sets = {
  use_scalars : Sset.t;
  gen_scalars : Sset.t;
  use_arrays : Sset.t;
  gen_arrays : Sset.t;
}

let empty =
  {
    use_scalars = Sset.empty;
    gen_scalars = Sset.empty;
    use_arrays = Sset.empty;
    gen_arrays = Sset.empty;
  }

let union a b =
  {
    use_scalars = Sset.union a.use_scalars b.use_scalars;
    gen_scalars = Sset.union a.gen_scalars b.gen_scalars;
    use_arrays = Sset.union a.use_arrays b.use_arrays;
    gen_arrays = Sset.union a.gen_arrays b.gen_arrays;
  }

(* Transitive per-function array read/write summaries, fixpoint over the
   call graph (recursion-safe). *)
let func_summaries (p : program) =
  let summary = Hashtbl.create 16 in
  List.iter
    (fun f -> Hashtbl.replace summary f.fname (Sset.empty, Sset.empty))
    p.funcs;
  let rec expr_arrays_rw (r, w) = function
    | Int _ | Var _ -> (r, w)
    | Load (a, i) -> expr_arrays_rw (Sset.add a r, w) i
    | Binop (_, x, y) -> expr_arrays_rw (expr_arrays_rw (r, w) x) y
    | Unop (_, e) -> expr_arrays_rw (r, w) e
    | Call (g, args) ->
        let gr, gw =
          Option.value ~default:(Sset.empty, Sset.empty)
            (Hashtbl.find_opt summary g)
        in
        List.fold_left expr_arrays_rw (Sset.union r gr, Sset.union w gw) args
  in
  let stmt_arrays_rw acc s =
    match s.node with
    | Assign (_, e) | Print e | Expr e | Return (Some e) ->
        expr_arrays_rw acc e
    | Return None -> acc
    | Store (a, i, v) ->
        let r, w = expr_arrays_rw (expr_arrays_rw acc i) v in
        (r, Sset.add a w)
    | If (c, _, _) | While (c, _) -> expr_arrays_rw acc c
    | For (_, lo, hi, _) -> expr_arrays_rw (expr_arrays_rw acc lo) hi
  in
  let pass () =
    List.fold_left
      (fun changed f ->
        let acc =
          fold_stmts stmt_arrays_rw (Sset.empty, Sset.empty) f.body
        in
        let old = Hashtbl.find summary f.fname in
        if Sset.equal (fst old) (fst acc) && Sset.equal (snd old) (snd acc)
        then changed
        else begin
          Hashtbl.replace summary f.fname acc;
          true
        end)
      false p.funcs
  in
  while pass () do
    ()
  done;
  summary

let func_summary p name =
  match Hashtbl.find_opt (func_summaries p) name with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Dataflow.func_summary: no function %S" name)

(* Upward-exposed-use / may-gen analysis over structured statements.
   [written] is the set of scalars definitely written so far. *)
let of_stmts_with summaries stmts =
  let acc = ref empty in
  let use_scalar written v =
    if not (Sset.mem v written) then
      acc := { !acc with use_scalars = Sset.add v !acc.use_scalars }
  in
  let gen_scalar v =
    acc := { !acc with gen_scalars = Sset.add v !acc.gen_scalars }
  in
  let use_array a =
    acc := { !acc with use_arrays = Sset.add a !acc.use_arrays }
  in
  let gen_array a =
    acc := { !acc with gen_arrays = Sset.add a !acc.gen_arrays }
  in
  let rec expr written = function
    | Int _ -> ()
    | Var v -> use_scalar written v
    | Load (a, i) ->
        use_array a;
        expr written i
    | Binop (_, x, y) ->
        expr written x;
        expr written y
    | Unop (_, e) -> expr written e
    | Call (g, args) ->
        (match Hashtbl.find_opt summaries g with
        | Some (r, w) ->
            Sset.iter use_array r;
            Sset.iter gen_array w
        | None -> ());
        List.iter (expr written) args
  in
  let rec stmt written s =
    match s.node with
    | Assign (v, e) ->
        expr written e;
        gen_scalar v;
        Sset.add v written
    | Store (a, i, v) ->
        expr written i;
        expr written v;
        gen_array a;
        written
    | Print e | Expr e ->
        expr written e;
        written
    | Return (Some e) ->
        expr written e;
        written
    | Return None -> written
    | If (c, t, e) ->
        expr written c;
        let wt = block written t in
        let we = block written e in
        Sset.union written (Sset.inter wt we)
    | While (c, b) ->
        expr written c;
        (* Body may run zero times: uses are exposed with the entry
           state; its writes are not definite afterwards. *)
        ignore (block written b);
        written
    | For (v, lo, hi, b) ->
        expr written lo;
        expr written hi;
        gen_scalar v;
        ignore (block (Sset.add v written) b);
        written
  and block written stmts = List.fold_left stmt written stmts in
  ignore (block Sset.empty stmts);
  !acc

let of_stmts p stmts = of_stmts_with (func_summaries p) stmts

let of_cluster p (c : Lp_cluster.Cluster.t) = of_stmts p c.stmts

(* The call summaries are a whole-program fixpoint: compute them once
   and walk every cluster with the same table, rather than once per
   cluster through [of_cluster]. *)
let of_chain p chain =
  let summaries = func_summaries p in
  List.map
    (fun (c : Lp_cluster.Cluster.t) -> (c.cid, of_stmts_with summaries c.stmts))
    chain

let pp ppf s =
  let pp_set ppf set =
    Format.fprintf ppf "{%s}" (String.concat "," (Sset.elements set))
  in
  Format.fprintf ppf
    "@[<h>use_scalars=%a gen_scalars=%a use_arrays=%a gen_arrays=%a@]" pp_set
    s.use_scalars pp_set s.gen_scalars pp_set s.use_arrays pp_set s.gen_arrays
