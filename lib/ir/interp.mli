(** Reference interpreter and profiler.

    Executes a (numbered, validated) program with exact 32-bit word
    semantics ({!Word}). This is the behavioural golden model: the
    compiler + instruction-set simulator and the partitioned-system
    co-simulation are both differentially tested against it.

    It doubles as the paper's profiler: the result carries [#ex_times]
    (how often each statement executed — Fig. 4, footnote 14 "we obtain
    #ex_times through profiling") and per-array access counts.

    {b Compile once, then run.} Each {!run} first resolves every name of
    the program once: it compiles each statement and expression into a
    closure over slot-indexed state, then runs the entry function's
    closure. Each function's scalars get frame slots (parameters, then
    locals, then any other assigned or [For] scalar), and each activation
    is one [int array]. Each [Load]/[Store] holds its array and its access
    counter, and each [Call] holds its callee. No step hashes a name. The
    interpreter shares no code with the compiler or the instruction-set
    simulator, so it stays an independent reference for them.

    {b Undeclared scalars.} A scalar that is neither a parameter nor a
    local (a [For] index, or a scalar of a program {!Validate} never
    checked, such as the partitioned system's ASIC mini programs) is
    unbound in each activation until it is first written. Reading it
    before then raises [Runtime_error "unbound scalar ..."]. *)

type result = {
  outputs : int list;  (** values printed, in order — the observables *)
  steps : int;  (** statements executed *)
  profile : int array;  (** indexed by [sid]: execution count *)
  array_reads : (string * int) list;  (** dynamic [Load]s per array *)
  array_writes : (string * int) list;  (** dynamic [Store]s per array *)
  final_arrays : (string * int array) list;  (** memory at exit *)
}

exception Runtime_error of string
(** Division by zero, out-of-bounds access, call-depth or fuel
    exhaustion; the message pinpoints the statement. *)

val run : ?fuel:int -> Ast.program -> result
(** [run p] executes [p] from its entry function. [fuel] bounds the
    number of executed statements (default 200 million).
    @raise Runtime_error on a dynamic error. *)

val ex_times : result -> int -> int
(** [ex_times r sid] is how often statement [sid] executed (0 when out
    of range — e.g. dead code). *)
