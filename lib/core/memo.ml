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

(* Two tiers, so that candidate hit/miss statistics — which callers and
   tests assert exactly — are not perturbed by initial-simulation
   probes. Both persist under one directory: their keys are digests of
   tag-prefixed serializations, so they never name the same file. *)
let candidates : Candidate.t option Store.t = Store.create ~tag:"cand"
let initials : System.report Store.t = Store.create ~tag:"init"

type stats = Store.stats = {
  hits : int;
  misses : int;
  entries : int;
  disk_hits : int;
}

type initial_stats = {
  initial_hits : int;
  initial_misses : int;
  initial_entries : int;
  initial_disk_hits : int;
}

let stats () = Store.stats candidates

let initial_stats () =
  let s = Store.stats initials in
  {
    initial_hits = s.hits;
    initial_misses = s.misses;
    initial_entries = s.entries;
    initial_disk_hits = s.disk_hits;
  }

let hit_rate () =
  let s = stats () in
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total

let reset () =
  Store.reset candidates;
  Store.reset initials

(* v2: entries carry a digest of their payload (see Store). *)
let format_version = 2
let persist_root = Atomic.make None
let entry_dir root = Filename.concat root (Printf.sprintf "v%d" format_version)

let set_persist_dir root =
  let dir = Option.map entry_dir root in
  Store.set_dir candidates dir;
  Store.set_dir initials dir;
  Atomic.set persist_root root

let persist_dir () = Atomic.get persist_root

let disk_entries () =
  match persist_dir () with
  | None -> 0
  | Some root -> Store.count (entry_dir root)

(* Candidates are cached with [e_trans_j] zero — the transfer energy is
   not part of the key (it does not influence the schedule, binding or
   netlist) and is stamped per caller. So is the cluster: the key leaves
   sids out, so a hit may have been stored by another program (or
   another position in this one) whose cluster has the same statements
   under other sids and another cid. *)
let evaluate ?(platform = Platform.sparclite)
    ?(scheduler = Candidate.List_sched) ~e_trans_j p rset =
  Store.find_or_compute candidates (key ~platform ~scheduler p rset)
    (fun () ->
      Candidate.evaluate_prepared ~scheduler ~e_trans_j:0.0
        (candidate_prepared p) rset)
  |> Option.map (fun c -> { c with Candidate.e_trans_j; cluster = p.cluster })

let initial_report ~config program =
  Store.find_or_compute initials
    (initial_fingerprint ~config program)
    (fun () -> System.run ~config program)
