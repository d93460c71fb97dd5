(* Timing and sample statistics shared by every workload. *)

(* Host wall time on the monotonic clock, in seconds. *)
let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now_s () in
  let v = f () in
  (v, now_s () -. t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Nearest-rank percentile: the smallest sample with at least [pct] % of
   the samples at or below it. Integer arithmetic keeps the rank exact. *)
let rank ~pct n = max 1 (((pct * n) + 99) / 100)

(* Samples strictly above the [pct] rank. A percentile is worth reporting
   only when at least ten samples lie beyond it; below that it is the
   maximum of a handful of samples, not a tail estimate. *)
let beyond ~pct n = n - rank ~pct n
let reportable ~pct n = n > 0 && beyond ~pct n >= 10

let percentile ~pct xs =
  let a = sorted xs in
  let n = Array.length a in
  if reportable ~pct n then Some a.(rank ~pct n - 1) else None

(* A closed loop over [n] programs in whole rounds: each round runs
   every program once, [op i] for program [i], in an order drawn from
   [rng]; a new round starts only while fewer than [seconds] have elapsed
   since the loop began. At least one round always runs, so every program
   appears equally often, and concurrent callers meet every pairing of
   programs rather than a fixed one. [between] runs after every round,
   outside any op. *)
let rounds ?(between = ignore) ~rng ~seconds ~n op =
  let t0 = now_s () in
  let order = Array.init n Fun.id in
  let rec go () =
    for k = n - 1 downto 1 do
      let j = Random.State.int rng (k + 1) in
      let t = order.(k) in
      order.(k) <- order.(j);
      order.(j) <- t
    done;
    Array.iter op order;
    between ();
    if now_s () -. t0 < seconds then go ()
  in
  go ()

(* Per-op samples in flat arrays that grow by doubling. A phase keeps no
   small block per op: such blocks, promoted among a flow's garbage, pin
   major-heap pools and make the peak RSS grow with the run length. *)
type samples = {
  mutable len : int;
  mutable prog : int array;
  mutable lat : Float.Array.t;
  mutable bad : bool array;
}

let samples () =
  { len = 0; prog = Array.make 1024 0; lat = Float.Array.make 1024 0.0; bad = Array.make 1024 false }

let record b ~prog ~latency_s ~bad =
  if b.len = Array.length b.prog then begin
    let cap = 2 * b.len in
    let grow a fill = Array.init cap (fun i -> if i < b.len then a.(i) else fill) in
    b.prog <- grow b.prog 0;
    b.bad <- grow b.bad false;
    b.lat <- Float.Array.init cap (fun i -> if i < b.len then Float.Array.get b.lat i else 0.0)
  end;
  b.prog.(b.len) <- prog;
  Float.Array.set b.lat b.len latency_s;
  b.bad.(b.len) <- bad;
  b.len <- b.len + 1
