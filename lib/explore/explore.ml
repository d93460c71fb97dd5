module Flow = Lp_core.Flow
module Memo = Lp_core.Memo
module Candidate = Lp_core.Candidate
module Store = Lp_core.Store
module System = Lp_system.System
module Cache = Lp_cache.Cache
module Platform = Lp_tech.Platform
module Pool = Lp_parallel.Pool
module J = Lp_json

let log_src = Logs.Src.create "lp.explore" ~doc:"design-space exploration"

module Log = (val Logs.src_log log_src)

(* --- the space ---------------------------------------------------- *)

type point = {
  f : float;
  n_max : int;
  max_cells : int;
  asic_vdd_v : float;
  rset : string;
  config : string;
  platform : string;
}

type space = {
  f_values : float list;
  n_max_values : int list;
  max_cells_values : int list;
  vdd_values : float list;
  rset_choices : (string * Lp_tech.Resource_set.t list) list;
  config_choices : (string * System.config) list;
  platform_choices : (string * Platform.t) list;
}

let default_space =
  {
    f_values = [ 0.5; 1.0; 2.0; 4.0; 8.0; 16.0 ];
    n_max_values = [ Flow.default_options.Flow.n_max ];
    max_cells_values = [ 8_000; 16_000; 24_000 ];
    vdd_values = [ Flow.default_options.Flow.asic_vdd_v ];
    rset_choices = [ ("default", Flow.default_options.Flow.resource_sets) ];
    config_choices = [ ("default", Flow.default_options.Flow.config) ];
    platform_choices =
      [ ("default", Flow.default_options.Flow.config.System.platform) ];
  }

let space_of_options (o : Flow.options) =
  {
    f_values = [ o.Flow.f ];
    n_max_values = [ o.Flow.n_max ];
    max_cells_values = [ o.Flow.max_cells ];
    vdd_values = [ o.Flow.asic_vdd_v ];
    rset_choices = [ ("default", o.Flow.resource_sets) ];
    config_choices = [ ("default", o.Flow.config) ];
    platform_choices = [ ("default", o.Flow.config.System.platform) ];
  }

let platform_axis platforms =
  List.map (fun (p : Platform.t) -> (p.Platform.name, p)) platforms

let validate_space s =
  let nonempty what l =
    if l = [] then invalid_arg ("Explore.run: empty axis " ^ what)
  in
  nonempty "f_values" s.f_values;
  nonempty "n_max_values" s.n_max_values;
  nonempty "max_cells_values" s.max_cells_values;
  nonempty "vdd_values" s.vdd_values;
  nonempty "rset_choices" (List.map fst s.rset_choices);
  nonempty "config_choices" (List.map fst s.config_choices);
  nonempty "platform_choices" (List.map fst s.platform_choices)

let grid_points (s : space) =
  List.concat_map
    (fun f ->
      List.concat_map
        (fun n_max ->
          List.concat_map
            (fun max_cells ->
              List.concat_map
                (fun asic_vdd_v ->
                  List.concat_map
                    (fun (rset, _) ->
                      List.concat_map
                        (fun (config, _) ->
                          List.map
                            (fun (platform, _) ->
                              {
                                f;
                                n_max;
                                max_cells;
                                asic_vdd_v;
                                rset;
                                config;
                                platform;
                              })
                            s.platform_choices)
                        s.config_choices)
                    s.rset_choices)
                s.vdd_values)
            s.max_cells_values)
        s.n_max_values)
    s.f_values

let choice what choices name =
  match List.assoc_opt name choices with
  | Some v -> v
  | None ->
      invalid_arg
        (Printf.sprintf "Explore: point names unknown %s alternative %S" what
           name)

let options_of_point ~(base : Flow.options) space (p : point) =
  let config = choice "config" space.config_choices p.config in
  let platform = choice "platform" space.platform_choices p.platform in
  (* A platform that already matches the chosen config is a no-op —
     this keeps explicit cache overrides carried by the config (an
     [icache_bytes]-style refinement) intact on the default axis.
     A genuinely different platform re-derives the config from it. *)
  let config =
    if Platform.equal platform config.System.platform then config
    else System.config_of_platform ~base:config platform
  in
  {
    base with
    Flow.f = p.f;
    n_max = p.n_max;
    max_cells = p.max_cells;
    asic_vdd_v = p.asic_vdd_v;
    resource_sets = choice "resource-set" space.rset_choices p.rset;
    config;
  }

(* --- metrics and the Pareto frontier ------------------------------ *)

type metrics = {
  energy_j : float;
  cells : int;
  time_change : float;
  energy_saving : float;
}

let metrics_of_result (r : Flow.result) =
  {
    energy_j = System.total_energy_j r.Flow.partitioned;
    cells = r.Flow.total_cells;
    time_change = r.Flow.time_change;
    energy_saving = r.Flow.energy_saving;
  }

let dominates a b =
  a.energy_j <= b.energy_j && a.cells <= b.cells
  && a.time_change <= b.time_change
  && (a.energy_j < b.energy_j || a.cells < b.cells
    || a.time_change < b.time_change)

type outcome = { point : point; metrics : metrics; from_journal : bool }

(* Non-dominated subset of the log. Distinct points only (an adaptive
   chain may propose one point twice); canonical ordering makes the
   frontier a function of the log *as a set*, so it is invariant under
   permutation and under how a parallel run interleaved batches. *)
let pareto (outcomes : outcome list) =
  let seen = Hashtbl.create 32 in
  let uniq =
    List.filter
      (fun o ->
        if Hashtbl.mem seen o.point then false
        else begin
          Hashtbl.add seen o.point ();
          true
        end)
      outcomes
  in
  List.filter
    (fun o -> not (List.exists (fun o' -> dominates o'.metrics o.metrics) uniq))
    uniq
  |> List.sort
       (fun a b ->
         compare
           (a.metrics.energy_j, a.metrics.cells, a.metrics.time_change, a.point)
           (b.metrics.energy_j, b.metrics.cells, b.metrics.time_change, b.point))

(* --- explicit PRNG ------------------------------------------------ *)

(* splitmix64: tiny, fast, and — unlike [Random.State] — a fixed
   algorithm this module owns, so a seed means the same point sequence
   on every OCaml version. *)
module Rng = struct
  type t = { mutable s : int64 }

  let create seed = { s = Int64.of_int seed }

  let next t =
    t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
    let z = t.s in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  (* Uniform in [0, 1). *)
  let float t =
    Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1p-53

  let int t n = min (n - 1) (int_of_float (float t *. float_of_int n))
  let pick t l = List.nth l (int t (List.length l))
  let uniform t lo hi = lo +. ((hi -. lo) *. float t)
end

(* --- strategies --------------------------------------------------- *)

type stepper = {
  propose : unit -> point list;
  observe : (point * metrics) list -> unit;
}

module type STRATEGY = sig
  val name : string
  val start : space -> seed:int -> stepper
end

module Grid_strategy : STRATEGY = struct
  let name = "grid"

  let start space ~seed:_ =
    let remaining = ref (grid_points space) in
    {
      propose =
        (fun () ->
          let batch = !remaining in
          remaining := [];
          batch);
      observe = (fun _ -> ());
    }
end

(* Simulated annealing over the continuous axes (F, Vdd), with
   temperature-scaled hops on the discrete ones. Multi-objective search
   through per-chain scalarisation: every chain draws its own weight
   vector over the three (running-min/max-normalised) objectives, so
   with several chains the walkers spread along the frontier instead of
   piling onto one compromise point. All randomness is consumed in
   [propose]; [observe] only updates chain positions from the batch
   results — which is what makes a seeded run deterministic for any
   [jobs] value and replayable from the journal. *)
module Anneal (P : sig
  val budget : int
  val chains : int
end) : STRATEGY = struct
  let name = Printf.sprintf "anneal:%d:%d" P.budget P.chains

  type chain = {
    weights : float * float * float;
    mutable cur : point option;
    mutable cur_metrics : metrics option;
    mutable proposal : point option;
  }

  let start space ~seed =
    let rng = Rng.create seed in
    let f_lo = List.fold_left Float.min infinity space.f_values
    and f_hi = List.fold_left Float.max neg_infinity space.f_values in
    let v_lo = List.fold_left Float.min infinity space.vdd_values
    and v_hi = List.fold_left Float.max neg_infinity space.vdd_values in
    let chains =
      List.init P.chains (fun _ ->
          let w () = 0.25 +. Rng.float rng in
          let a = w () and b = w () and c = w () in
          let s = a +. b +. c in
          {
            weights = (a /. s, b /. s, c /. s);
            cur = None;
            cur_metrics = None;
            proposal = None;
          })
    in
    let proposed = ref 0 in
    (* Running objective ranges, for normalisation. *)
    let e_min = ref infinity
    and e_max = ref neg_infinity
    and c_min = ref infinity
    and c_max = ref neg_infinity
    and t_min = ref infinity
    and t_max = ref neg_infinity in
    let norm lo hi x = if hi > lo then (x -. lo) /. (hi -. lo) else 0.0 in
    let score (wa, wb, wc) m =
      (wa *. norm !e_min !e_max m.energy_j)
      +. (wb *. norm !c_min !c_max (float_of_int m.cells))
      +. (wc *. norm !t_min !t_max m.time_change)
    in
    let temperature () =
      (* 1.0 -> 0.05, geometric in the fraction of budget consumed. *)
      let progress =
        if P.budget <= P.chains then 1.0
        else float_of_int !proposed /. float_of_int P.budget
      in
      0.05 ** progress
    in
    let random_point () =
      {
        f = Rng.pick rng space.f_values;
        n_max = Rng.pick rng space.n_max_values;
        max_cells = Rng.pick rng space.max_cells_values;
        asic_vdd_v = Rng.pick rng space.vdd_values;
        rset = fst (Rng.pick rng space.rset_choices);
        config = fst (Rng.pick rng space.config_choices);
        platform = fst (Rng.pick rng space.platform_choices);
      }
    in
    let perturb t (p : point) =
      let hop axis current =
        if Rng.float rng < 0.35 *. t then Rng.pick rng axis else current
      in
      let f =
        if f_hi > f_lo then
          Float.min f_hi
            (Float.max f_lo
               (p.f *. exp (Rng.uniform rng (-1.0) 1.0 *. 0.7 *. t)))
        else p.f
      in
      let asic_vdd_v =
        if v_hi > v_lo then
          Float.min v_hi
            (Float.max v_lo
               (p.asic_vdd_v
               +. (Rng.uniform rng (-1.0) 1.0 *. 0.5 *. t *. (v_hi -. v_lo))))
        else p.asic_vdd_v
      in
      {
        f;
        asic_vdd_v;
        n_max = hop space.n_max_values p.n_max;
        max_cells = hop space.max_cells_values p.max_cells;
        rset = fst (hop space.rset_choices (p.rset, []));
        config =
          fst (hop space.config_choices (p.config, System.default_config));
        platform =
          fst (hop space.platform_choices (p.platform, Platform.sparclite));
      }
    in
    let propose () =
      if !proposed >= P.budget then []
      else begin
        let t = temperature () in
        let room = P.budget - !proposed in
        let active =
          List.filteri (fun i _ -> i < room) chains
        in
        let batch =
          List.map
            (fun ch ->
              let p =
                match ch.cur with
                | None -> random_point ()
                | Some cur -> perturb t cur
              in
              ch.proposal <- Some p;
              p)
            active
        in
        proposed := !proposed + List.length batch;
        batch
      end
    in
    let observe results =
      let t = Float.max 0.02 (temperature ()) in
      List.iter
        (fun (_, m) ->
          e_min := Float.min !e_min m.energy_j;
          e_max := Float.max !e_max m.energy_j;
          c_min := Float.min !c_min (float_of_int m.cells);
          c_max := Float.max !c_max (float_of_int m.cells);
          t_min := Float.min !t_min m.time_change;
          t_max := Float.max !t_max m.time_change)
        results;
      (* Results arrive in proposal order: chain i's proposal is the
         i-th element of the batch it participated in. *)
      let rec step chains results =
        match (chains, results) with
        | _, [] | [], _ -> ()
        | ch :: chains, (p, m) :: results ->
            (match ch.proposal with
            | Some prop when prop = p ->
                let accept =
                  match ch.cur_metrics with
                  | None -> true
                  | Some cur_m ->
                      let s_new = score ch.weights m
                      and s_cur = score ch.weights cur_m in
                      s_new <= s_cur
                      || Rng.float rng < exp ((s_cur -. s_new) /. t)
                in
                if accept then begin
                  ch.cur <- Some p;
                  ch.cur_metrics <- Some m
                end;
                ch.proposal <- None
            | Some _ | None -> ());
            step chains results
      in
      step
        (List.filter (fun ch -> ch.proposal <> None) chains)
        results
    in
    { propose; observe }
end

module Strategy = struct
  type t = (module STRATEGY)

  let grid : t = (module Grid_strategy)

  let anneal ?(budget = 24) ?(chains = 4) () : t =
    if budget < 1 then invalid_arg "Strategy.anneal: budget must be >= 1";
    if chains < 1 then invalid_arg "Strategy.anneal: chains must be >= 1";
    (module Anneal (struct
      let budget = budget
      let chains = chains
    end))

  let name (s : t) =
    let module S = (val s) in
    S.name

  let of_string s =
    match String.split_on_char ':' s with
    | [ "grid" ] -> Ok grid
    | [ "anneal" ] -> Ok (anneal ())
    | [ "anneal"; b ] -> (
        match int_of_string_opt b with
        | Some budget when budget > 0 -> Ok (anneal ~budget ())
        | Some _ | None -> Error (Printf.sprintf "bad anneal budget %S" b))
    | [ "anneal"; b; c ] -> (
        match (int_of_string_opt b, int_of_string_opt c) with
        | Some budget, Some chains when budget > 0 && chains > 0 ->
            Ok (anneal ~budget ~chains ())
        | _ -> Error (Printf.sprintf "bad anneal parameters %S" s))
    | _ ->
        Error
          (Printf.sprintf
             "unknown strategy %S (try: grid, anneal, anneal:<budget>, \
              anneal:<budget>:<chains>)"
             s)
end

(* --- fingerprints ------------------------------------------------- *)

(* Point and scope serialization, [Lp_core.Memo]-style: a point key
   covers every option field the point controls *by value* (the
   resolved resource sets and config, not just their names), a scope
   key covers the program and every base-option field points do not
   override. Jobs/pool_threshold are execution knobs and excluded —
   a journal written at [-j 1] must serve a [-j 8] resume. *)

let add_int buf n =
  Buffer.add_char buf 'i';
  Buffer.add_string buf (string_of_int n);
  Buffer.add_char buf ';'

let add_float buf x =
  Buffer.add_char buf 'g';
  Buffer.add_string buf (Printf.sprintf "%h" x);
  Buffer.add_char buf ';'

let add_str buf s =
  Buffer.add_char buf 's';
  add_int buf (String.length s);
  Buffer.add_string buf s

let add_cache_config buf (c : Cache.config) =
  add_int buf c.Cache.size_bytes;
  add_int buf c.Cache.line_bytes;
  add_int buf c.Cache.assoc;
  add_int buf
    (match c.Cache.policy with Cache.Write_back -> 0 | Cache.Write_through -> 1)

let add_platform buf (p : Platform.t) =
  add_str buf p.Platform.name;
  add_float buf p.Platform.core_vdd_v;
  add_float buf p.Platform.clock_mhz;
  add_float buf p.Platform.peak_clock_mhz;
  let geom (g : Platform.cache_geom) =
    add_int buf g.Platform.geom_size_bytes;
    add_int buf g.Platform.geom_line_bytes;
    add_int buf g.Platform.geom_assoc;
    add_int buf (if g.Platform.geom_write_through then 1 else 0)
  in
  geom p.Platform.icache;
  geom p.Platform.dcache;
  add_int buf p.Platform.mem_first_word_latency;
  add_float buf p.Platform.mem_access_energy_j;
  add_float buf p.Platform.mem_standby_power_w

let add_system_config buf (c : System.config) =
  add_cache_config buf c.System.icache;
  add_cache_config buf c.System.dcache;
  add_int buf c.System.fuel;
  add_int buf c.System.buffer_capacity_words;
  add_int buf c.System.asic_word_cycles;
  add_int buf (if c.System.peephole then 1 else 0);
  add_platform buf c.System.platform

let add_rsets buf rsets =
  add_int buf (List.length rsets);
  List.iter
    (fun rset ->
      List.iter
        (fun (kind, count) ->
          add_str buf (Lp_tech.Resource.kind_to_string kind);
          add_int buf count)
        (Lp_tech.Resource_set.bindings rset))
    rsets

let point_key space (p : point) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "explore-point/2;";
  add_float buf p.f;
  add_int buf p.n_max;
  add_int buf p.max_cells;
  add_float buf p.asic_vdd_v;
  add_rsets buf (choice "resource-set" space.rset_choices p.rset);
  add_system_config buf (choice "config" space.config_choices p.config);
  add_platform buf (choice "platform" space.platform_choices p.platform);
  Digest.string (Buffer.contents buf)

let scope_key ~name ~(base : Flow.options) program =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "explore-scope/1;";
  add_str buf name;
  (* Program identity (full AST + base system config) via the memo
     tier's own fingerprint. *)
  add_str buf (Memo.initial_fingerprint ~config:base.Flow.config program);
  add_int buf base.Flow.cells0;
  add_int buf (if base.Flow.verify_outputs then 1 else 0);
  (match base.Flow.scheduler with
  | Candidate.List_sched -> add_str buf "list"
  | Candidate.Fds stretch ->
      add_str buf "fds";
      add_float buf stretch);
  Digest.string (Buffer.contents buf)

(* --- the checkpoint journal --------------------------------------- *)

(* One {!Lp_core.Store} entry per completed point under
   [root/v<N>/<scope>/], keyed by the point fingerprint: a torn or
   corrupt checkpoint costs one re-evaluation, never an error. *)

(* v3: entries carry a digest of their payload (see Store). *)
let journal_format_version = 3

let journal_open ~root ~scope : (point * metrics) Store.disk =
  Store.disk ~tag:"explore-point"
    (Filename.concat
       (Filename.concat root (Printf.sprintf "v%d" journal_format_version))
       (Digest.to_hex scope))

(* --- the engine --------------------------------------------------- *)

type result = {
  app : string;
  strategy : string;
  seed : int;
  space : space;
  log : outcome list;
  frontier : outcome list;
  evaluated : int;
  journal_hits : int;
}

let run ?(strategy = Strategy.grid) ?(seed = 0) ?jobs ?pool ?cancel
    ?journal_dir ?(base = Flow.default_options) ?(space = default_space)
    ~name program =
  validate_space space;
  let jobs =
    match jobs with Some j -> max 1 j | None -> base.Flow.jobs
  in
  let journal =
    Option.map
      (fun root -> journal_open ~root ~scope:(scope_key ~name ~base program))
      journal_dir
  in
  let module S = (val strategy : STRATEGY) in
  let stepper = S.start space ~seed in
  let evaluated = ref 0 and journal_hits = ref 0 in
  let log = ref [] in
  (* One point = one sequential, memoized flow run. Parallelism lives
     across the batch (Pool.map over points), never inside a point:
     a task that blocked on futures of its own pool could deadlock the
     workers, and cross-point fan-out saturates the domains anyway. *)
  (* Each point journals itself the moment it completes — from inside
     the pool task, not after the whole batch — so a cancellation (or
     crash) mid-batch keeps every finished evaluation for the next,
     resumed, exploration. Keys within a batch are unique (deduped
     below), so concurrent stores never race on one file. *)
  let eval ((p : point), key) =
    let options = { (options_of_point ~base space p) with Flow.jobs = 1 } in
    let m = metrics_of_result (Flow.run ~options ?cancel ~name program) in
    Option.iter (fun j -> Store.save j key (p, m)) journal;
    m
  in
  let run_batch pool_opt batch =
    let resolved =
      List.map
        (fun p ->
          let key = point_key space p in
          match Option.bind journal (fun j -> Store.load j key) with
          | Some (_, m) -> (p, key, Some m)
          | None -> (p, key, None))
        batch
    in
    (* Unique cold points, in first-appearance order (an annealing batch
       can propose the same point from two chains). *)
    let cold_keys = Hashtbl.create 16 in
    let cold =
      List.filter_map
        (fun (p, key, m) ->
          match m with
          | Some _ -> None
          | None ->
              if Hashtbl.mem cold_keys key then None
              else begin
                Hashtbl.add cold_keys key ();
                Some (p, key)
              end)
        resolved
      |> Array.of_list
    in
    let results =
      match pool_opt with
      | Some pool -> Pool.map ?cancel pool eval cold
      | None -> Array.map eval cold
    in
    let computed = Hashtbl.create 16 in
    Array.iteri
      (fun i (_, key) -> Hashtbl.replace computed key results.(i))
      cold;
    evaluated := !evaluated + Array.length cold;
    List.map
      (fun (p, key, m) ->
        match m with
        | Some metrics ->
            incr journal_hits;
            { point = p; metrics; from_journal = true }
        | None ->
            { point = p; metrics = Hashtbl.find computed key; from_journal = false })
      resolved
  in
  let explore pool_opt =
    let rec loop () =
      Option.iter Lp_parallel.Cancel.check cancel;
      match stepper.propose () with
      | [] -> ()
      | batch ->
          let outcomes =
            Lp_trace.with_span "explore.batch" (fun () ->
                run_batch pool_opt batch)
          in
          Log.debug (fun m ->
              m "%s: batch of %d (%d fresh, %d from journal so far)" name
                (List.length batch) !evaluated !journal_hits);
          log := List.rev_append outcomes !log;
          stepper.observe
            (List.map (fun o -> (o.point, o.metrics)) outcomes);
          loop ()
    in
    loop ()
  in
  (match pool with
  | Some _ -> explore pool
  | None ->
      if jobs > 1 then
        Pool.with_pool ~domains:(jobs - 1) (fun p -> explore (Some p))
      else explore None);
  let log = List.rev !log in
  {
    app = name;
    strategy = S.name;
    seed;
    space;
    log;
    frontier = pareto log;
    evaluated = !evaluated;
    journal_hits = !journal_hits;
  }

(* --- JSON export -------------------------------------------------- *)

let outcome_to_json (o : outcome) =
  J.Assoc
    [
      ("f", J.Float o.point.f);
      ("n_max", J.Int o.point.n_max);
      ("max_cells", J.Int o.point.max_cells);
      ("asic_vdd_v", J.Float o.point.asic_vdd_v);
      ("resource_sets", J.String o.point.rset);
      ("config", J.String o.point.config);
      ("platform", J.String o.point.platform);
      ("energy_j", J.Float o.metrics.energy_j);
      ("cells", J.Int o.metrics.cells);
      ("time_change", J.Float o.metrics.time_change);
      ("energy_saving", J.Float o.metrics.energy_saving);
      ("from_journal", J.Bool o.from_journal);
    ]

let space_to_json (s : space) =
  J.Assoc
    [
      ("f_values", J.List (List.map (fun x -> J.Float x) s.f_values));
      ("n_max_values", J.List (List.map (fun n -> J.Int n) s.n_max_values));
      ( "max_cells_values",
        J.List (List.map (fun n -> J.Int n) s.max_cells_values) );
      ("vdd_values", J.List (List.map (fun x -> J.Float x) s.vdd_values));
      ( "resource_sets",
        J.List (List.map (fun (name, _) -> J.String name) s.rset_choices) );
      ( "configs",
        J.List (List.map (fun (name, _) -> J.String name) s.config_choices) );
      ( "platforms",
        J.List (List.map (fun (name, _) -> J.String name) s.platform_choices)
      );
    ]

let to_json (r : result) =
  J.Assoc
    [
      ("schema", J.String "lowpart-explore/1");
      ("app", J.String r.app);
      ("strategy", J.String r.strategy);
      ("seed", J.Int r.seed);
      ("evaluated", J.Int r.evaluated);
      ("journal_hits", J.Int r.journal_hits);
      ("space", space_to_json r.space);
      ("frontier", J.List (List.map outcome_to_json r.frontier));
      ("log", J.List (List.map outcome_to_json r.log));
    ]
