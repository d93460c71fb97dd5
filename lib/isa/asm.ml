type item =
  | Label of string
  | Instr of Isa.instr
  | Bnez_l of Isa.reg * string
  | Beqz_l of Isa.reg * string
  | Jmp_l of string
  | Jal_l of string

exception Error of string

let fail fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let target item a =
  match item with
  | Bnez_l (r, _) -> Isa.Bnez (r, a)
  | Beqz_l (r, _) -> Isa.Beqz (r, a)
  | Jmp_l _ -> Isa.Jmp a
  | Jal_l _ -> Isa.Jal a
  | Label _ | Instr _ -> invalid_arg "Asm.target"

module Labels = Hashtbl.Make (String)

(* A scan counts the instructions; then one pass over the stream binds
   each label when it is reached, resolves a reference to a bound label
   at once, and records a forward one, patched when every label is
   known. No list or array is built besides the code. *)
let assemble ~entry ~data_words ~symbols items =
  let n_instrs =
    List.fold_left (fun n -> function Label _ -> n | _ -> n + 1) 0 items
  in
  let labels = Labels.create 64 in
  let code = Array.make n_instrs Isa.Halt in
  let forward = ref [] and pc = ref 0 in
  List.iter
    (fun item ->
      match item with
      | Label l ->
          if Labels.mem labels l then fail "duplicate label %S" l;
          Labels.replace labels l !pc
      | Instr i ->
          code.(!pc) <- i;
          incr pc
      | Bnez_l (_, l) | Beqz_l (_, l) | Jmp_l l | Jal_l l ->
          (match Labels.find labels l with
          | a -> code.(!pc) <- target item a
          | exception Not_found -> forward := (!pc, l, item) :: !forward);
          incr pc)
    items;
  let resolve l =
    match Labels.find labels l with
    | a -> a
    | exception Not_found -> fail "undefined label %S" l
  in
  List.iter (fun (at, l, item) -> code.(at) <- target item (resolve l)) (List.rev !forward);
  { Isa.code; data_words; entry_pc = resolve entry; symbols }
