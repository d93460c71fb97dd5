open Lp_ir.Ast
module Op = Lp_tech.Op

type kind = Loop | Branch | Straight

type t = { cid : int; kind : kind; stmts : stmt list }

type chain = t list

let is_simple s =
  match s.node with
  | Assign _ | Store _ | Print _ | Expr _ | Return _ -> true
  | If _ | While _ | For _ -> false

let decompose (p : program) =
  let entry =
    match find_func p p.entry with
    | Some f -> f
    | None -> invalid_arg "Cluster.decompose: missing entry function"
  in
  let flush acc run =
    match run with [] -> acc | _ -> List.rev run :: acc
  in
  (* Group consecutive simple statements; compound statements stand
     alone. Returns groups in control-flow order. *)
  let rec group acc run = function
    | [] -> List.rev (flush acc run)
    | s :: rest ->
        if is_simple s then group acc (s :: run) rest
        else group ([ s ] :: flush acc run) [] rest
  in
  let groups = group [] [] entry.body in
  List.mapi
    (fun cid stmts ->
      let kind =
        match stmts with
        | [ { node = While _ | For _; _ } ] -> Loop
        | [ { node = If _; _ } ] -> Branch
        | _ -> Straight
      in
      { cid; kind; stmts })
    groups

let sids c =
  List.sort Stdlib.compare (fold_stmts (fun acc s -> s.sid :: acc) [] c.stmts)

let exists_stmt pred c =
  fold_stmts (fun acc s -> acc || pred s) false c.stmts

let rec expr_has_call = function
  | Int _ | Var _ -> false
  | Load (_, i) -> expr_has_call i
  | Binop (_, a, b) -> expr_has_call a || expr_has_call b
  | Unop (_, e) -> expr_has_call e
  | Call _ -> true

let stmt_exprs s =
  match s.node with
  | Assign (_, e) | Print e | Expr e | Return (Some e) -> [ e ]
  | Store (_, i, v) -> [ i; v ]
  | If (c, _, _) | While (c, _) -> [ c ]
  | For (_, lo, hi, _) -> [ lo; hi ]
  | Return None -> []

let contains_call c =
  exists_stmt (fun s -> List.exists expr_has_call (stmt_exprs s)) c

let contains_return c =
  exists_stmt (fun s -> match s.node with Return _ -> true | _ -> false) c

let asic_candidate c = not (contains_call c || contains_return c)

let static_ops c =
  fold_stmts
    (fun chunks s ->
      let own =
        match s.node with
        | Store _ -> [ Op.Store ]
        | Assign (_, (Int _ | Var _)) -> [ Op.Move ]
        | Print _ -> [ Op.Move ]
        | For _ -> [ Op.Add; Op.Cmp ] (* index increment + exit test *)
        | Assign _ | If _ | While _ | Return _ | Expr _ -> []
      in
      List.fold_right expr_ops_onto (stmt_exprs s) own :: chunks)
    [] c.stmts
  |> List.rev |> List.concat

let arrays_touched c =
  let add acc a = if List.mem a acc then acc else a :: acc in
  let arrays =
    fold_stmts
      (fun acc s ->
        let from_exprs =
          List.concat_map expr_arrays (stmt_exprs s)
        in
        let acc = List.fold_left add acc from_exprs in
        match s.node with Store (a, _, _) -> add acc a | _ -> acc)
      [] c.stmts
  in
  List.rev arrays

type segment = {
  seg_exprs : expr list;
  seg_stmts : stmt list;
  anchor_sid : int;
}

let segments c =
  let out = ref [] in
  let emit seg = out := seg :: !out in
  let flush run =
    match List.rev run with
    | [] -> ()
    | first :: _ as stmts ->
        emit { seg_exprs = []; seg_stmts = stmts; anchor_sid = first.sid }
  in
  (* [anchor_of body fallback] picks a statement whose execution count
     equals one body iteration. *)
  let anchor_of body fallback =
    match body with [] -> fallback | s :: _ -> s.sid
  in
  let rec walk stmts =
    let rec go run = function
      | [] -> flush run
      | s :: rest when is_simple s -> go (s :: run) rest
      | s :: rest ->
          flush run;
          (match s.node with
          | If (cond, t, e) ->
              emit { seg_exprs = [ cond ]; seg_stmts = []; anchor_sid = s.sid };
              walk t;
              walk e
          | While (cond, body) ->
              emit
                {
                  seg_exprs = [ cond ];
                  seg_stmts = [];
                  anchor_sid = anchor_of body s.sid;
                };
              walk body
          | For (v, lo, hi, body) ->
              (* Bounds evaluated once per loop entry... *)
              emit { seg_exprs = [ lo; hi ]; seg_stmts = []; anchor_sid = s.sid };
              (* ...then one increment + exit compare per iteration. *)
              emit
                {
                  seg_exprs = [ Binop (Lt, Var v, Var v) ];
                  seg_stmts = [ { sid = -1; node = Assign (v, Binop (Add, Var v, Int 1)) } ];
                  anchor_sid = anchor_of body s.sid;
                };
              walk body
          | Assign _ | Store _ | Print _ | Return _ | Expr _ ->
              (* unreachable: [is_simple] covered these *)
              assert false);
          go [] rest
    in
    go [] stmts
  in
  walk c.stmts;
  List.rev !out

let segment_ops seg =
  let stmt_ops s tail =
    match s.node with
    | Assign (_, (Int _ | Var _)) -> Op.Move :: tail
    | Assign (_, e) | Expr e | Return (Some e) -> expr_ops_onto e tail
    | Store (_, i, v) -> expr_ops_onto i (expr_ops_onto v (Op.Store :: tail))
    | Print e -> expr_ops_onto e (Op.Move :: tail)
    | Return None | If _ | While _ | For _ -> tail
  in
  List.fold_right expr_ops_onto seg.seg_exprs
    (List.fold_right stmt_ops seg.seg_stmts [])

let dynamic_ops c ~profile =
  let times sid =
    if sid >= 0 && sid < Array.length profile then profile.(sid) else 0
  in
  List.map (fun seg -> (segment_ops seg, times seg.anchor_sid)) (segments c)

let kind_to_string = function
  | Loop -> "loop"
  | Branch -> "branch"
  | Straight -> "straight"

let pp ppf c =
  Format.fprintf ppf "cluster %d [%s] (%d stmts, sids %s)" c.cid
    (kind_to_string c.kind)
    (List.length (sids c))
    (match sids c with
    | [] -> "-"
    | l ->
        let lo = List.hd l and hi = List.nth l (List.length l - 1) in
        Printf.sprintf "%d..%d" lo hi)

let pp_chain ppf chain =
  Format.fprintf ppf "@[<v>";
  List.iter (fun c -> Format.fprintf ppf "%a@," pp c) chain;
  Format.fprintf ppf "@]"
