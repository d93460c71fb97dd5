let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render ?(name = "g") ?(node_label = string_of_int) ?(node_attrs = fun _ -> [])
    ~nodes ~iter_edges () =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "digraph %s {" (escape name);
  line "  rankdir=TB;";
  line "  node [fontname=\"monospace\"];";
  for v = 0 to nodes - 1 do
    let attrs =
      ("label", node_label v) :: node_attrs v
      |> List.map (fun (k, x) -> Printf.sprintf "%s=\"%s\"" k (escape x))
      |> String.concat ", "
    in
    line "  n%d [%s];" v attrs
  done;
  iter_edges (fun u v -> line "  n%d -> n%d;" u v);
  line "}";
  Buffer.contents buf
