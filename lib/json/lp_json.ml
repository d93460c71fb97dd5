type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

exception Parse_error of string

(* --- printing ----------------------------------------------------- *)

(* Escape the two JSON metacharacters and [\n] symbolically, every
   other control byte as \u00XX, and pass the rest (including any UTF-8
   payload) through untouched. *)
let escape_to buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 32 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let rec print_to buf v =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float x ->
      if Float.is_finite x then Buffer.add_string buf (Printf.sprintf "%.6g" x)
      else Buffer.add_string buf "null"
  | String s ->
      Buffer.add_char buf '"';
      escape_to buf s;
      Buffer.add_char buf '"'
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          print_to buf item)
        items;
      Buffer.add_char buf ']'
  | Assoc fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape_to buf k;
          Buffer.add_string buf "\":";
          print_to buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  print_to buf v;
  Buffer.contents buf

let to_channel oc v = output_string oc (to_string v)

(* --- parsing ------------------------------------------------------ *)

type state = { src : string; mutable pos : int }

let error st msg =
  raise (Parse_error (Printf.sprintf "%s at byte %d" msg st.pos))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | Some _ | None -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> error st (Printf.sprintf "expected %C, found %C" c c')
  | None -> error st (Printf.sprintf "expected %C, found end of input" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else error st (Printf.sprintf "invalid literal (expected %s)" word)

(* UTF-8 encoding of one code point (for \uXXXX escapes). *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xf0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end

let hex4 st =
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> error st "invalid \\u escape"
  in
  let v = ref 0 in
  for _ = 1 to 4 do
    (match peek st with
    | Some c -> v := (!v * 16) + digit c
    | None -> error st "unterminated \\u escape");
    advance st
  done;
  !v

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | None -> error st "unterminated escape"
        | Some c ->
            advance st;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                let cp = hex4 st in
                let cp =
                  (* A high surrogate must pair with a following \u
                     low surrogate; decode the pair to one scalar. *)
                  if cp >= 0xd800 && cp <= 0xdbff then begin
                    expect st '\\';
                    expect st 'u';
                    let lo = hex4 st in
                    if lo < 0xdc00 || lo > 0xdfff then
                      error st "invalid low surrogate"
                    else 0x10000 + ((cp - 0xd800) lsl 10) + (lo - 0xdc00)
                  end
                  else cp
                in
                add_utf8 buf cp
            | _ -> error st "invalid escape character");
            go ())
    | Some c when Char.code c < 32 -> error st "raw control byte in string"
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_float = ref false in
  let consume_digits () =
    let any = ref false in
    let rec go () =
      match peek st with
      | Some '0' .. '9' ->
          any := true;
          advance st;
          go ()
      | Some _ | None -> ()
    in
    go ();
    if not !any then error st "expected digit"
  in
  if peek st = Some '-' then advance st;
  consume_digits ();
  if peek st = Some '.' then begin
    is_float := true;
    advance st;
    consume_digits ()
  end;
  (match peek st with
  | Some ('e' | 'E') ->
      is_float := true;
      advance st;
      (match peek st with
      | Some ('+' | '-') -> advance st
      | Some _ | None -> ());
      consume_digits ()
  | Some _ | None -> ());
  let lexeme = String.sub st.src start (st.pos - start) in
  if !is_float then Float (float_of_string lexeme)
  else
    match int_of_string_opt lexeme with
    | Some n -> Int n
    | None -> Float (float_of_string lexeme)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some 'n' -> literal st "null" Null
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some '"' -> String (parse_string st)
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        List []
      end
      else begin
        let items = ref [] in
        let rec go () =
          items := parse_value st :: !items;
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              go ()
          | Some ']' -> advance st
          | Some c -> error st (Printf.sprintf "expected ',' or ']', found %C" c)
          | None -> error st "unterminated array"
        in
        go ();
        List (List.rev !items)
      end
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Assoc []
      end
      else begin
        let fields = ref [] in
        let rec go () =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          fields := (k, v) :: !fields;
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              go ()
          | Some '}' -> advance st
          | Some c -> error st (Printf.sprintf "expected ',' or '}', found %C" c)
          | None -> error st "unterminated object"
        in
        go ();
        Assoc (List.rev !fields)
      end
  | Some c -> error st (Printf.sprintf "unexpected character %C" c)

let of_string s =
  let st = { src = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  (match peek st with
  | Some c -> error st (Printf.sprintf "trailing content (%C)" c)
  | None -> ());
  v

let parse s =
  match of_string s with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* --- equality ----------------------------------------------------- *)

let num_value = function
  | Int n -> Some (float_of_int n)
  | Float x -> Some x
  | Null | Bool _ | String _ | List _ | Assoc _ -> None

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool a, Bool b -> a = b
  | String a, String b -> String.equal a b
  | (Int _ | Float _), (Int _ | Float _) -> num_value a = num_value b
  | List a, List b -> List.equal equal a b
  | Assoc a, Assoc b ->
      List.length a = List.length b
      && List.for_all
           (fun (k, v) ->
             match List.assoc_opt k b with
             | Some v' -> equal v v'
             | None -> false)
           a
  | (Null | Bool _ | Int _ | Float _ | String _ | List _ | Assoc _), _ ->
      false

(* --- accessors ---------------------------------------------------- *)

let member name = function
  | Assoc fields -> List.assoc_opt name fields
  | Null | Bool _ | Int _ | Float _ | String _ | List _ -> None

let to_bool_opt = function Bool b -> Some b | _ -> None

let to_int_opt = function
  | Int n -> Some n
  | Float x when Float.is_integer x && Float.abs x <= 2. ** 52. ->
      Some (int_of_float x)
  | _ -> None

let to_float_opt = function
  | Float x -> Some x
  | Int n -> Some (float_of_int n)
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None
let to_list_opt = function List l -> Some l | _ -> None
let to_assoc_opt = function Assoc l -> Some l | _ -> None

let field f obj name = Option.bind (member name obj) f
let string_field obj name = field to_string_opt obj name
let int_field obj name = field to_int_opt obj name
let float_field obj name = field to_float_opt obj name
let bool_field obj name = field to_bool_opt obj name
