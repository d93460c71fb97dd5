open Ast
module Op = Lp_tech.Op

type t = {
  ops : Op.t array;
  arrays : string option array;
  pred_off : int array;
  pred : int array;
  succ_off : int array;
  succ : int array;
}

let node_count t = Array.length t.ops
let edge_count t = Array.length t.pred
let op t v = t.ops.(v)
let array t v = t.arrays.(v)
let ops t = Array.to_list t.ops

let row off adj v =
  let rec collect e acc = if e < off.(v) then acc else collect (e - 1) (adj.(e) :: acc) in
  collect (off.(v + 1) - 1) []

let preds t v = row t.pred_off t.pred v
let succs t v = row t.succ_off t.succ v
let in_degree t v = t.pred_off.(v + 1) - t.pred_off.(v)
let out_degree t v = t.succ_off.(v + 1) - t.succ_off.(v)

let iter_edges f t =
  for u = 0 to node_count t - 1 do
    for e = t.succ_off.(u) to t.succ_off.(u + 1) - 1 do
      f u t.succ.(e)
    done
  done

(* A node's entry still holds its own weight when the descending loop
   reaches it: only successors are read before that, and a successor
   numbered below its predecessor is a sink, whose weight is final. *)
let longest_to_sinks t ~weight =
  let dist = Array.init (node_count t) weight in
  for v = node_count t - 1 downto 0 do
    let best = ref 0 in
    for e = t.succ_off.(v) to t.succ_off.(v + 1) - 1 do
      let d = dist.(t.succ.(e)) in
      if d > !best then best := d
    done;
    dist.(v) <- dist.(v) + !best
  done;
  dist

let longest_from_sources t ~weight =
  let dist = Array.make (node_count t) 0 in
  for u = 0 to node_count t - 1 do
    let d = dist.(u) + weight u in
    for e = t.succ_off.(u) to t.succ_off.(u + 1) - 1 do
      let w = t.succ.(e) in
      if d > dist.(w) then dist.(w) <- d
    done
  done;
  dist

exception Has_call

(* Growable int column. *)
type column = { mutable data : int array; mutable len : int }

let column () = { data = Array.make 32 0; len = 0 }

let push c x =
  if c.len = Array.length c.data then begin
    let d = Array.make (2 * c.len) 0 in
    Array.blit c.data 0 d 0 c.len;
    c.data <- d
  end;
  c.data.(c.len) <- x;
  c.len <- c.len + 1

type mem_state = {
  mutable last_store : int;  (** -1: none yet *)
  mutable loads_since : int list;
}

(* Edges are recorded as two parallel columns in creation order. All
   in-edges of a node are added right after it is created (a print's
   single in-edge right after its operand), so an edge [u -> v] is a
   duplicate exactly when [u]'s newest out-edge already goes to [v]. *)
type builder = {
  mutable ops : Op.t array;
  mutable last_dst : int array;  (** per node: head of its newest out-edge *)
  mutable n : int;
  mutable accesses : (int * string) list;  (** memory nodes, with their array *)
  src : column;
  dst : column;
  env : (string, int) Hashtbl.t;  (** scalar -> defining node *)
  mem : (string, mem_state) Hashtbl.t;
}

let new_node b op =
  let v = b.n in
  if v = Array.length b.ops then begin
    let grow a x =
      let a' = Array.make (2 * v) x in
      Array.blit a 0 a' 0 v;
      a'
    in
    b.ops <- grow b.ops Op.Add;
    b.last_dst <- grow b.last_dst (-1)
  end;
  b.ops.(v) <- op;
  b.last_dst.(v) <- -1;
  b.n <- v + 1;
  v

let access_node b a op =
  let v = new_node b op in
  b.accesses <- (v, a) :: b.accesses;
  v

let edge b src dst =
  if b.last_dst.(src) <> dst then begin
    b.last_dst.(src) <- dst;
    push b.src src;
    push b.dst dst
  end

let edge_opt b src dst = if src >= 0 then edge b src dst

let mem_state b a =
  match Hashtbl.find_opt b.mem a with
  | Some st -> st
  | None ->
      let st = { last_store = -1; loads_since = [] } in
      Hashtbl.add b.mem a st;
      st

let defined b v = Option.value ~default:(-1) (Hashtbl.find_opt b.env v)

(* Lower an expression to the node producing its value, or -1 for
   constants and segment inputs. *)
let rec lower_expr b = function
  | Int _ -> -1
  | Var v -> defined b v
  | Load (a, i) ->
      let idx = lower_expr b i in
      let n = access_node b a Op.Load in
      edge_opt b idx n;
      let st = mem_state b a in
      edge_opt b st.last_store n;
      st.loads_since <- n :: st.loads_since;
      n
  | Binop (op, x, y) ->
      let nx = lower_expr b x in
      let ny = lower_expr b y in
      let n = new_node b (op_of_binop op) in
      edge_opt b nx n;
      edge_opt b ny n;
      n
  | Unop (op, e) ->
      let ne = lower_expr b e in
      let n = new_node b (op_of_unop op) in
      edge_opt b ne n;
      n
  | Call _ -> raise Has_call

let lower_store b a i v =
  let idx = lower_expr b i in
  let value = lower_expr b v in
  let n = access_node b a Op.Store in
  edge_opt b idx n;
  edge_opt b value n;
  let st = mem_state b a in
  edge_opt b st.last_store n;
  List.iter (fun l -> edge b l n) st.loads_since;
  st.last_store <- n;
  st.loads_since <- []

let lower_stmt b s =
  match s.node with
  | Assign (v, e) ->
      let n = lower_expr b e in
      if n >= 0 then Hashtbl.replace b.env v n
      else begin
        (* Constant or plain copy: occupies a transfer path. *)
        let n = new_node b Op.Move in
        (match e with
        | Var src -> edge_opt b (defined b src) n
        | Int _ | Load _ | Binop _ | Unop _ | Call _ -> ());
        Hashtbl.replace b.env v n
      end
  | Store (a, i, v) -> lower_store b a i v
  | Print e ->
      (* The transfer node is numbered before its operand's nodes. *)
      let n = new_node b Op.Move in
      edge_opt b (lower_expr b e) n
  | Expr e -> ignore (lower_expr b e)
  | Return _ -> raise Has_call (* a returning cluster leaves the datapath *)
  | If _ | While _ | For _ ->
      invalid_arg "Dfg.of_segment: control flow inside a segment"

(* Both adjacencies by a stable counting sort of the edge columns, so
   each row keeps creation order: count each row, turn the counts into
   row ends, then place the edges last to first, moving each end down
   to its row's start. *)
let freeze b =
  let n = b.n and m = b.src.len in
  let src = b.src.data and dst = b.dst.data in
  let pred_off = Array.make (n + 1) 0 and succ_off = Array.make (n + 1) 0 in
  for e = 0 to m - 1 do
    pred_off.(dst.(e)) <- pred_off.(dst.(e)) + 1;
    succ_off.(src.(e)) <- succ_off.(src.(e)) + 1
  done;
  for v = 1 to n do
    pred_off.(v) <- pred_off.(v) + pred_off.(v - 1);
    succ_off.(v) <- succ_off.(v) + succ_off.(v - 1)
  done;
  let pred = Array.make m 0 and succ = Array.make m 0 in
  for e = m - 1 downto 0 do
    let u = src.(e) and v = dst.(e) in
    pred_off.(v) <- pred_off.(v) - 1;
    pred.(pred_off.(v)) <- u;
    succ_off.(u) <- succ_off.(u) - 1;
    succ.(succ_off.(u)) <- v
  done;
  let arrays = Array.make n None in
  List.iter (fun (v, a) -> arrays.(v) <- Some a) b.accesses;
  { ops = Array.sub b.ops 0 n; arrays; pred_off; pred; succ_off; succ }

let of_segment exprs stmts =
  let b =
    {
      ops = Array.make 32 Op.Add;
      last_dst = Array.make 32 (-1);
      n = 0;
      accesses = [];
      src = column ();
      dst = column ();
      env = Hashtbl.create 32;
      mem = Hashtbl.create 8;
    }
  in
  match
    List.iter (fun e -> ignore (lower_expr b e)) exprs;
    List.iter (lower_stmt b) stmts
  with
  | () -> Some (freeze b)
  | exception Has_call -> None

let of_segment_exn exprs stmts =
  match of_segment exprs stmts with
  | Some t -> t
  | None -> invalid_arg "Dfg.of_segment_exn: segment contains a call"

let pp ppf t =
  Format.fprintf ppf "@[<v>dfg (%d ops)" (node_count t);
  for v = 0 to node_count t - 1 do
    Format.fprintf ppf "@,%d: %a%s -> %a" v Op.pp t.ops.(v)
      (match t.arrays.(v) with Some a -> "[" ^ a ^ "]" | None -> "")
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         Format.pp_print_int)
      (succs t v)
  done;
  Format.fprintf ppf "@]"
