type t = { data : int array; mutable size : int }

let create capacity = { data = Array.make capacity 0; size = 0 }
let length h = h.size
let is_empty h = h.size = 0

let push h x =
  let d = h.data in
  if h.size = Array.length d then invalid_arg "Int_heap.push: heap is full";
  let i = ref h.size in
  h.size <- !i + 1;
  while !i > 0 && d.((!i - 1) / 2) > x do
    d.(!i) <- d.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  d.(!i) <- x

let top h =
  if h.size = 0 then invalid_arg "Int_heap.top: empty heap";
  h.data.(0)

let pop h =
  let min = top h in
  let d = h.data in
  let n = h.size - 1 in
  h.size <- n;
  let x = d.(n) in
  let i = ref 0 and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    if l >= n then sifting := false
    else begin
      let m = if l + 1 < n && d.(l + 1) < d.(l) then l + 1 else l in
      if d.(m) < x then begin
        d.(!i) <- d.(m);
        i := m
      end
      else sifting := false
    end
  done;
  if n > 0 then d.(!i) <- x;
  min
