open Ast

type result = {
  outputs : int list;
  steps : int;
  profile : int array;
  array_reads : (string * int) list;
  array_writes : (string * int) list;
  final_arrays : (string * int array) list;
}

exception Runtime_error of string
exception Return of int (* to the enclosing call *)

let fail fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

type arr = { data : int array; mutable reads : int; mutable writes : int }

(* A function resolved for one run. [scope] gives each scalar two frame slots
   (parameters, then locals, then other assigned or [For] scalars) and tells
   whether it is declared; the second slot is an undeclared scalar's bound
   flag. [code] is set once all functions have a record, for calls to capture. *)
type fn = {
  func : func;
  scope : (var, int * bool) Hashtbl.t;
  mutable code : int array -> unit;
}

type state = {
  prof : int array;  (** indexed by sid; [max_sid] bounds every sid *)
  arrays : (var, arr) Hashtbl.t;
  funcs : (string, fn) Hashtbl.t;
  mutable out : int list;
  mutable fuel : int;
  mutable depth : int;
}

let[@inline] tick st sid =
  if st.fuel <= 0 then fail "fuel exhausted (infinite loop?) at sid %d" sid;
  st.fuel <- st.fuel - 1;
  if sid >= 0 then Array.unsafe_set st.prof sid (Array.unsafe_get st.prof sid + 1)

let binop = function
  | Add -> Word.add | Sub -> Word.sub | Shl -> Word.shl | Shr -> Word.shr
  | Div -> fun a b -> if b = 0 then fail "division by zero" else Word.div a b
  | Mod -> fun a b -> if b = 0 then fail "modulo by zero" else Word.rem a b
  | Mul -> Word.mul | And -> Word.logand | Or -> Word.logor | Xor -> Word.logxor
  | Lt -> fun a b -> Word.of_bool (a < b) | Le -> fun a b -> Word.of_bool (a <= b)
  | Gt -> fun a b -> Word.of_bool (a > b) | Ge -> fun a b -> Word.of_bool (a >= b)
  | Eq -> fun a b -> Word.of_bool (a = b) | Ne -> fun a b -> Word.of_bool (a <> b)

let resolve (f : func) =
  let scope = Hashtbl.create 16 in
  let add declared v =
    if not (Hashtbl.mem scope v) then
      Hashtbl.add scope v (2 * Hashtbl.length scope, declared)
  in
  List.iter (add true) (f.params @ f.locals);
  iter_stmts
    (fun s -> match s.node with Assign (v, _) | For (v, _, _, _) -> add false v | _ -> ())
    f.body;
  { func = f; scope; code = ignore }

let new_arr { init; size; _ } =
  { data = (match init with Some d -> Array.map Word.norm d | None -> Array.make size 0);
    reads = 0; writes = 0 }

let[@inline] check what a d idx =
  if idx < 0 || idx >= Array.length d then
    fail "%s %s[%d] out of bounds (size %d)" what a idx (Array.length d)

let rec expr st scope = function
  | Int n -> fun _ -> n
  | Var v -> (
      match Hashtbl.find_opt scope v with
      | Some (k, true) -> fun fr -> Array.unsafe_get fr k
      | Some (k, false) ->
          fun fr -> if fr.(k + 1) = 0 then fail "unbound scalar %S" v else fr.(k)
      | None -> fun _ -> fail "unbound scalar %S" v)
  | Load (a, i) -> (
      let i = expr st scope i in
      match Hashtbl.find_opt st.arrays a with
      | None -> fun _ -> fail "unknown array %S" a
      | Some ({ data = d; _ } as r) ->
          fun fr ->
            let idx = i fr in
            check "load" a d idx;
            r.reads <- r.reads + 1;
            Array.unsafe_get d idx)
  | Binop (op, x, y) ->
      let f = binop op and x = expr st scope x and y = expr st scope y in
      fun fr -> let a = x fr in f a (y fr)
  | Unop (Neg, e) -> expr st scope (Binop (Sub, Int 0, e))
  | Unop (Bnot, e) -> expr st scope (Binop (Xor, e, Int (-1)))
  | Unop (Lnot, e) -> expr st scope (Binop (Eq, e, Int 0))
  | Call (g, args) -> (
      let args = Array.of_list (List.map (expr st scope) args) in
      match Hashtbl.find_opt st.funcs g with
      | None ->
          fun fr ->
            Array.iter (fun a -> ignore (a fr)) args;
            fail "call to unknown function %S" g
      | Some c ->
          (* A local that shadows a parameter starts at 0, as in any frame. *)
          let { params; locals; _ } = c.func in
          let slot p = if List.mem p locals then -1 else fst (Hashtbl.find c.scope p) in
          let slots = Array.of_list (List.map slot params) in
          fun fr ->
            let callee = Array.make (2 * Hashtbl.length c.scope) 0 in
            for j = 0 to Array.length args - 1 do
              let v = args.(j) fr in
              if j < Array.length slots && slots.(j) >= 0 then callee.(slots.(j)) <- v
            done;
            if st.depth >= 256 then fail "call depth exceeded in %S" g;
            if Array.length args <> Array.length slots then invalid_arg "List.iter2";
            st.depth <- st.depth + 1;
            let v = match c.code callee with () -> 0 | exception Return v -> v in
            st.depth <- st.depth - 1;
            v)

let rec stmt st scope { sid; node } =
  let expr = expr st scope and block = block st scope in
  match node with
  | Assign (v, e) -> (
      let e = expr e in
      match Hashtbl.find scope v with
      | s, true -> fun fr -> tick st sid; Array.unsafe_set fr s (e fr)
      | s, false -> fun fr -> tick st sid; fr.(s) <- e fr; fr.(s + 1) <- 1)
  | Store (a, i, e) -> (
      let i = expr i and e = expr e in
      match Hashtbl.find_opt st.arrays a with
      | None -> fun _ -> tick st sid; fail "unknown array %S" a
      | Some ({ data = d; _ } as r) ->
          fun fr ->
            tick st sid;
            let idx = i fr in
            let v = e fr in
            check "store" a d idx;
            r.writes <- r.writes + 1;
            Array.unsafe_set d idx v)
  | If (c, t, e) ->
      let c = expr c and t = block t and e = block e in
      fun fr -> tick st sid; if c fr <> 0 then t fr else e fr
  | While (c, b) ->
      let c = expr c and b = block b in
      fun fr -> tick st sid; while c fr <> 0 do b fr done
  | For (v, lo, hi, b) ->
      let lo = expr lo and hi = expr hi and b = block b in
      let s, declared = Hashtbl.find scope v in
      fun fr ->
        tick st sid;
        let l = lo fr in
        let h = hi fr in
        fr.(s) <- l; if not declared then fr.(s + 1) <- 1;
        (* The body may write [v]: it is re-read after every iteration. *)
        while fr.(s) < h do b fr; fr.(s) <- Word.add fr.(s) 1 done
  | Print e -> let e = expr e in fun fr -> tick st sid; st.out <- e fr :: st.out
  | Return e ->
      let e = match e with Some e -> expr e | None -> fun _ -> 0 in
      fun fr -> tick st sid; raise_notrace (Return (e fr))
  | Expr e -> let e = expr e in fun fr -> tick st sid; ignore (e fr)

and block st scope ss =
  match Array.of_list (List.map (stmt st scope) ss) with
  | [| a |] -> a
  | a -> fun fr -> for j = 0 to Array.length a - 1 do (Array.unsafe_get a j) fr done

let run ?(fuel = 200_000_000) p =
  let n = max (max_sid p + 1) 1 in
  let arrays = Hashtbl.create 16 and funcs = Hashtbl.create 16 in
  let st = { prof = Array.make n 0; arrays; funcs; fuel; out = []; depth = 0 } in
  List.iter (fun a -> Hashtbl.replace arrays a.aname (new_arr a)) p.arrays;
  (* Replacing in reverse keeps the first function of a name, as [find_func]. *)
  List.iter (fun f -> Hashtbl.replace funcs f.fname (resolve f)) (List.rev p.funcs);
  Hashtbl.iter (fun _ fn -> fn.code <- block st fn.scope fn.func.body) funcs;
  ignore (expr st (Hashtbl.create 1) (Call (p.entry, [])) [||]);
  let all = Hashtbl.fold (fun a r l -> (a, r) :: l) arrays [] in
  let all = List.sort (fun (a, _) (b, _) -> String.compare a b) all in
  let used f = List.filter (fun (_, n) -> n > 0) (List.map (fun (a, r) -> (a, f r)) all) in
  {
    outputs = List.rev st.out;
    steps = fuel - st.fuel;
    profile = st.prof;
    array_reads = used (fun r -> r.reads);
    array_writes = used (fun r -> r.writes);
    final_arrays = List.map (fun (a, r) -> (a, r.data)) all;
  }

let ex_times r sid =
  if sid >= 0 && sid < Array.length r.profile then r.profile.(sid) else 0
