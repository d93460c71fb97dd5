module Cluster = Lp_cluster.Cluster
module Ast = Lp_ir.Ast
module System = Lp_system.System
module Cache = Lp_cache.Cache
module Platform = Lp_tech.Platform

(* --- structural fingerprint ------------------------------------- *)

(* The serialization writes one tagged token per AST node plus, for
   every statement, its profiled execution count. Absolute sids are
   deliberately omitted: they only matter through the profile values,
   which are emitted in traversal (= positional) order. *)

(* [string_of_int n] without the intermediate string. *)
let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int buf n =
  Buffer.add_char buf 'i';
  if n >= 0 then add_digits buf n
  else if n = min_int then Buffer.add_string buf (string_of_int n)
  else begin
    Buffer.add_char buf '-';
    add_digits buf (-n)
  end;
  Buffer.add_char buf ';'

let add_str buf s =
  Buffer.add_char buf 's';
  add_int buf (String.length s);
  Buffer.add_string buf s

let rec add_expr buf (e : Ast.expr) =
  match e with
  | Ast.Int n ->
      Buffer.add_char buf 'I';
      add_int buf n
  | Ast.Var v ->
      Buffer.add_char buf 'V';
      add_str buf v
  | Ast.Load (a, i) ->
      Buffer.add_char buf 'L';
      add_str buf a;
      add_expr buf i
  | Ast.Binop (op, l, r) ->
      Buffer.add_char buf 'B';
      add_str buf (Ast.binop_to_string op);
      add_expr buf l;
      add_expr buf r
  | Ast.Unop (op, e) ->
      Buffer.add_char buf 'U';
      add_str buf (Ast.unop_to_string op);
      add_expr buf e
  | Ast.Call (f, args) ->
      Buffer.add_char buf 'C';
      add_str buf f;
      add_int buf (List.length args);
      List.iter (add_expr buf) args

let ex_times profile sid =
  if sid >= 0 && sid < Array.length profile then profile.(sid) else 0

let rec add_stmt buf ~profile (s : Ast.stmt) =
  add_int buf (ex_times profile s.Ast.sid);
  match s.Ast.node with
  | Ast.Assign (v, e) ->
      Buffer.add_char buf 'a';
      add_str buf v;
      add_expr buf e
  | Ast.Store (a, i, v) ->
      Buffer.add_char buf 't';
      add_str buf a;
      add_expr buf i;
      add_expr buf v
  | Ast.If (c, th, el) ->
      Buffer.add_char buf 'f';
      add_expr buf c;
      add_stmts buf ~profile th;
      add_stmts buf ~profile el
  | Ast.While (c, body) ->
      Buffer.add_char buf 'w';
      add_expr buf c;
      add_stmts buf ~profile body
  | Ast.For (v, lo, hi, body) ->
      Buffer.add_char buf 'o';
      add_str buf v;
      add_expr buf lo;
      add_expr buf hi;
      add_stmts buf ~profile body
  | Ast.Print e ->
      Buffer.add_char buf 'p';
      add_expr buf e
  | Ast.Return None -> Buffer.add_char buf 'r'
  | Ast.Return (Some e) ->
      Buffer.add_char buf 'R';
      add_expr buf e
  | Ast.Expr e ->
      Buffer.add_char buf 'e';
      add_expr buf e

and add_stmts buf ~profile stmts =
  add_int buf (List.length stmts);
  List.iter (add_stmt buf ~profile) stmts

let add_scheduler buf (s : Candidate.scheduler) =
  match s with
  | Candidate.List_sched -> Buffer.add_string buf "list"
  | Candidate.Fds stretch ->
      Buffer.add_string buf "fds:";
      Buffer.add_string buf (Printf.sprintf "%h" stretch)

let add_float buf x =
  Buffer.add_char buf 'h';
  Buffer.add_string buf (Printf.sprintf "%h" x);
  Buffer.add_char buf ';'

(* Platform serialization policy: the block is appended to a key ONLY
   when the platform differs from sparclite (structurally, including
   the name). Keys minted before platforms existed were implicitly
   sparclite keys, so the identity platform must serialize to nothing —
   that is what keeps every pre-platform on-disk cache entry (and the
   golden fingerprint pins) valid, while any other platform yields a
   digest no sparclite run can collide with. *)
let add_platform buf (p : Platform.t) =
  Buffer.add_string buf "platform/1;";
  add_str buf p.Platform.name;
  add_float buf p.Platform.core_vdd_v;
  add_float buf p.Platform.clock_mhz;
  add_float buf p.Platform.peak_clock_mhz;
  let add_geom (g : Platform.cache_geom) =
    add_int buf g.Platform.geom_size_bytes;
    add_int buf g.Platform.geom_line_bytes;
    add_int buf g.Platform.geom_assoc;
    add_int buf (if g.Platform.geom_write_through then 1 else 0)
  in
  add_geom p.Platform.icache;
  add_geom p.Platform.dcache;
  add_int buf p.Platform.mem_first_word_latency;
  add_float buf p.Platform.mem_access_energy_j;
  add_float buf p.Platform.mem_standby_power_w

let add_platform_unless_default buf p =
  if not (Platform.equal p Platform.sparclite) then add_platform buf p

(* The statement half of a key — the cluster's statements with their
   profiled counts — is the same under every resource set, so it is
   serialized once per cluster; [key] puts the per-set half in front
   of it and hashes the same bytes the per-pair keys always were. *)
type prepared = {
  cluster : Cluster.t;
  profile : int array;
  stmts_bytes : string;
  candidate : Candidate.prepared option Atomic.t;
}

let prepare ~profile (cluster : Cluster.t) =
  let buf = Buffer.create 512 in
  add_stmts buf ~profile cluster.Cluster.stmts;
  { cluster; profile; stmts_bytes = Buffer.contents buf; candidate = Atomic.make None }

(* Each domain assembles its keys in a scratch [Bytes] of its own that
   only grows, so a key costs no allocation beyond its digest. *)
let key_scratch = Domain.DLS.new_key (fun () -> (Buffer.create 128, ref (Bytes.create 4096)))

let key ?(platform = Platform.sparclite) ~scheduler p rset =
  let buf, scratch = Domain.DLS.get key_scratch in
  Buffer.clear buf;
  add_platform_unless_default buf platform;
  add_scheduler buf scheduler;
  List.iter
    (fun (kind, count) ->
      add_str buf (Lp_tech.Resource.kind_to_string kind);
      add_int buf count)
    (Lp_tech.Resource_set.bindings rset);
  let head = Buffer.length buf and tail = String.length p.stmts_bytes in
  if Bytes.length !scratch < head + tail then
    scratch := Bytes.create (2 * (head + tail));
  Buffer.blit buf 0 !scratch 0 head;
  Bytes.blit_string p.stmts_bytes 0 !scratch head tail;
  Digest.subbytes !scratch 0 (head + tail)

(* The DFGs and the uP model are built on the first miss of a cluster,
   so a warm flow never builds them. Domains racing on a cluster may
   each build it; the values are equal, and the last one stays. *)
let candidate_prepared p =
  match Atomic.get p.candidate with
  | Some c -> c
  | None ->
      let c = Candidate.prepare ~profile:p.profile p.cluster in
      Atomic.set p.candidate (Some c);
      c

(* Fingerprint of the initial ("I") system simulation: the whole program
   — entry, every array with its init image, every function — plus every
   [System.config] field that can change the report. The leading tag
   keeps the keyspace disjoint from candidate fingerprints, so the two
   kinds of entry can share the persistent directory. Statements are
   serialized with an empty profile (the initial run does not depend on
   one). *)
let add_cache_config buf (c : Cache.config) =
  add_int buf c.Cache.size_bytes;
  add_int buf c.Cache.line_bytes;
  add_int buf c.Cache.assoc;
  add_int buf
    (match c.Cache.policy with Cache.Write_back -> 0 | Cache.Write_through -> 1)

let initial_fingerprint ~(config : System.config) (p : Ast.program) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "initial-report/1;";
  add_cache_config buf config.System.icache;
  add_cache_config buf config.System.dcache;
  add_int buf config.System.fuel;
  add_int buf config.System.buffer_capacity_words;
  add_int buf config.System.asic_word_cycles;
  add_int buf (if config.System.peephole then 1 else 0);
  (* Empty at sparclite — see [add_platform_unless_default]: digests
     minted before platforms existed stay valid. *)
  add_platform_unless_default buf config.System.platform;
  add_str buf p.Ast.entry;
  add_int buf (List.length p.Ast.arrays);
  List.iter
    (fun (a : Ast.array_decl) ->
      add_str buf a.Ast.aname;
      add_int buf a.Ast.size;
      match a.Ast.init with
      | None -> add_int buf (-1)
      | Some img ->
          add_int buf (Array.length img);
          Array.iter (add_int buf) img)
    p.Ast.arrays;
  add_int buf (List.length p.Ast.funcs);
  List.iter
    (fun (f : Ast.func) ->
      add_str buf f.Ast.fname;
      add_int buf (List.length f.Ast.params);
      List.iter (add_str buf) f.Ast.params;
      add_int buf (List.length f.Ast.locals);
      List.iter (add_str buf) f.Ast.locals;
      add_stmts buf ~profile:[||] f.Ast.body)
    p.Ast.funcs;
  Digest.string (Buffer.contents buf)

(* --- the cache --------------------------------------------------- *)

let lock = Mutex.create ()
let table : (string, Candidate.t option) Hashtbl.t = Hashtbl.create 256
let hits = ref 0
let misses = ref 0
let disk_hits = ref 0

(* The initial-report tier keeps its own table and counters: candidate
   hit/miss statistics are asserted exactly by callers and tests, and an
   initial-simulation probe must not perturb them. *)
let initial_table : (string, System.report) Hashtbl.t = Hashtbl.create 16
let initial_hits = ref 0
let initial_misses = ref 0
let initial_disk_hits = ref 0

type stats = { hits : int; misses : int; entries : int; disk_hits : int }

type initial_stats = {
  initial_hits : int;
  initial_misses : int;
  initial_entries : int;
  initial_disk_hits : int;
}

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let stats () =
  locked (fun () ->
      {
        hits = !hits;
        misses = !misses;
        entries = Hashtbl.length table;
        disk_hits = !disk_hits;
      })

let initial_stats () =
  locked (fun () ->
      {
        initial_hits = !initial_hits;
        initial_misses = !initial_misses;
        initial_entries = Hashtbl.length initial_table;
        initial_disk_hits = !initial_disk_hits;
      })

let hit_rate () =
  let s = stats () in
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total

let reset () =
  locked (fun () ->
      Hashtbl.reset table;
      hits := 0;
      misses := 0;
      disk_hits := 0;
      Hashtbl.reset initial_table;
      initial_hits := 0;
      initial_misses := 0;
      initial_disk_hits := 0)

(* --- persistence -------------------------------------------------- *)

(* One file per entry under [root/v<N>], named by the hex fingerprint.
   The payload is a Marshal'd [(key, value)] pair behind a magic line
   that also pins the producing compiler — Marshal is not stable across
   OCaml versions, and a layout change of any cached type is exactly
   what the directory version exists to invalidate. A reader that finds
   anything unexpected (bad magic, short file, Marshal failure, key
   mismatch) treats the entry as absent and deletes it: a torn or
   corrupt file must cost one recomputation, never an error. Writers
   create a unique temp file in the same directory and [Sys.rename] it
   into place, so concurrent domains (or daemons sharing the
   directory) only ever publish whole entries. *)

let format_version = 1

let magic = Printf.sprintf "lowpart-memo/%d ocaml-%s\n" format_version Sys.ocaml_version

(* Behind [lock], like the counters. *)
let persist_root = ref None

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ -> ()
    end
  in
  go dir

let entry_dir root = Filename.concat root (Printf.sprintf "v%d" format_version)

let set_persist_dir dir =
  (match dir with Some root -> mkdir_p (entry_dir root) | None -> ());
  locked (fun () -> persist_root := dir)

let persist_dir () = locked (fun () -> !persist_root)

let entry_path root key =
  Filename.concat (entry_dir root) (Digest.to_hex key ^ ".memo")

(* Polymorphic over the payload: candidate entries store a
   [Candidate.t option], initial-report entries a [System.report]. Keys
   are digests of tag-prefixed serializations, so the two kinds can
   never name the same file — a payload is always read back at the type
   it was written at. *)
let disk_load root key =
  let path = entry_path root key in
  let read () =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let m = really_input_string ic (String.length magic) in
        if m <> magic then failwith "bad magic";
        let stored_key, v = Marshal.from_channel ic in
        if stored_key <> key then failwith "key mismatch";
        v)
  in
  if not (Sys.file_exists path) then None
  else
    match read () with
    | v -> Some v
    | exception _ ->
        (try Sys.remove path with Sys_error _ -> ());
        None

let disk_store root key v =
  try
    let dir = entry_dir root in
    mkdir_p dir;
    let tmp = Filename.temp_file ~temp_dir:dir ".memo-" ".tmp" in
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc magic;
        Marshal.to_channel oc (key, v) []);
    Sys.rename tmp (entry_path root key)
  with Sys_error _ -> ()

let disk_entries () =
  match persist_dir () with
  | None -> 0
  | Some root -> (
      match Sys.readdir (entry_dir root) with
      | files ->
          Array.fold_left
            (fun acc f ->
              if Filename.check_suffix f ".memo" then acc + 1 else acc)
            0 files
      | exception Sys_error _ -> 0)

(* Candidates are cached with [e_trans_j] normalised to zero — the
   transfer energy is not part of the key (it does not influence the
   schedule, binding or netlist) and is re-stamped per caller. The
   evaluation itself runs outside the lock so parallel workers only
   serialise on the table probe. *)
let evaluate ?(platform = Platform.sparclite)
    ?(scheduler = Candidate.List_sched) ~e_trans_j p rset =
  let key = key ~platform ~scheduler p rset in
  let restamp v = Option.map (fun c -> { c with Candidate.e_trans_j }) v in
  let cached =
    locked (fun () ->
        match Hashtbl.find_opt table key with
        | Some v ->
            incr hits;
            Some v
        | None -> None)
  in
  match cached with
  | Some v -> restamp v
  | None -> (
      (* Memory miss: consult the persistent tier (outside the lock —
         disk reads must not serialise the other workers). *)
      let root = locked (fun () -> !persist_root) in
      let from_disk = Option.bind root (fun r -> disk_load r key) in
      match from_disk with
      | Some v ->
          locked (fun () ->
              Hashtbl.replace table key v;
              incr hits;
              incr disk_hits);
          restamp v
      | None ->
          locked (fun () -> incr misses);
          let v =
            Candidate.evaluate_prepared ~scheduler ~e_trans_j
              (candidate_prepared p) rset
          in
          let normalised =
            Option.map (fun c -> { c with Candidate.e_trans_j = 0.0 }) v
          in
          locked (fun () -> Hashtbl.replace table key normalised);
          Option.iter (fun r -> disk_store r key normalised) root;
          v)

(* --- initial-report tier ------------------------------------------ *)

(* Unlike [evaluate], probing and storing are split: the flow wants to
   overlap the (expensive) initial simulation with profiling and
   pre-selection when the probe misses, so it owns the computation. *)

let find_initial key : System.report option =
  let cached =
    locked (fun () ->
        match Hashtbl.find_opt initial_table key with
        | Some r ->
            incr initial_hits;
            Some r
        | None -> None)
  in
  match cached with
  | Some _ -> cached
  | None -> (
      let root = locked (fun () -> !persist_root) in
      match Option.bind root (fun r -> disk_load r key) with
      | Some (r : System.report) ->
          locked (fun () ->
              Hashtbl.replace initial_table key r;
              incr initial_hits;
              incr initial_disk_hits);
          Some r
      | None ->
          locked (fun () -> incr initial_misses);
          None)

let store_initial key (r : System.report) =
  let root =
    locked (fun () ->
        Hashtbl.replace initial_table key r;
        !persist_root)
  in
  Option.iter (fun dir -> disk_store dir key r) root
