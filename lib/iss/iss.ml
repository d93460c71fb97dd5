(* Public face of the simulator. The machine itself — state, the lazy
   basic-block compiler, the direct-threaded dispatcher, and the
   per-instruction reference engine — lives in [Block]; this module
   re-exports it and adds the result/energy conversion, which turns the
   integer event counters into joules exactly once per run. *)

include Block

(* Adapt per-word callbacks to the hooks: expand each fetch run into
   per-word calls (and never let a fetch be skipped), and add up the
   stall cycles the callbacks return so that [settle] reports them.
   Used by tests and the trace tool, which want to observe individual
   accesses; the system simulator settles its caches directly. *)
let word_hooks ?(ifetch = fun _ -> 0) ?(dread = fun _ -> 0)
    ?(dwrite = fun _ -> 0)
    ?(acall = fun _ _ -> raise (Runtime_error "acall with null hooks")) () =
  let stalls = ref 0 in
  {
    ifetch =
      (fun addr n ->
        for i = 0 to n - 1 do
          stalls := !stalls + ifetch (addr + (i * 4))
        done;
        -1);
    iepoch = ref 0;
    dread = (fun a -> stalls := !stalls + dread a);
    dwrite = (fun a -> stalls := !stalls + dwrite a);
    acall;
    settle =
      (fun _ ->
        let s = !stalls in
        stalls := 0;
        s);
  }

type result = {
  outputs : int list;
  instr_count : int;
  up_cycles : int;
  stall_cycles : int;
  asic_cycles : int;
  up_energy_j : float;
  class_counts : (Isa.opclass * int) list;
}

(* Joules from the integer event counters: per-class executions at the
   class base energy, plus the circuit-state overhead per class
   transition, the refill energy per taken branch, and the stall energy
   per stalled cycle. Equal to a per-instruction accumulation up to
   float summation order (well within 1e-9 relative). *)
let up_energy_of (t : t) (tot : totals) =
  let e = ref 0.0 in
  Array.iteri
    (fun tag n ->
      if n > 0 then
        e :=
          !e
          +. (float_of_int n
             *. Energy_model.base_energy_j (Isa.opclass_of_tag tag)))
    tot.classes;
  !e
  +. (float_of_int tot.transitions *. Energy_model.inter_instr_overhead_j)
  +. (float_of_int t.taken_branches *. Energy_model.taken_branch_energy_j)
  +. (float_of_int t.stall_cycles *. Energy_model.stall_energy_per_cycle_j)

let result (t : t) =
  let tot = totals t in
  let class_counts = ref [] in
  for tag = Isa.opclass_count - 1 downto 0 do
    let n = tot.classes.(tag) in
    if n > 0 then class_counts := (Isa.opclass_of_tag tag, n) :: !class_counts
  done;
  {
    outputs = List.rev t.out;
    instr_count = tot.instrs;
    up_cycles = tot.cycles;
    stall_cycles = t.stall_cycles;
    asic_cycles = t.asic_cycles;
    up_energy_j = up_energy_of t tot;
    class_counts = !class_counts;
  }

let total_cycles r = r.up_cycles + r.stall_cycles + r.asic_cycles

let runtime_s r =
  float_of_int (total_cycles r) *. Lp_tech.Cmos6.clock_period_s
