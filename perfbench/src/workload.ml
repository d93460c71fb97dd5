(* The three workloads: what one operation is, how it is set up, how a
   timed phase runs it in whole rounds, and how its outputs are checked.
   See README.md for why each workload exists. *)

module J = Lp_json
module Flow = Lp_core.Flow
module Memo = Lp_core.Memo
module Apps = Lp_apps.Apps
module Gen = Lp_gen.Gen
module Engine = Lp_service.Engine
module Protocol = Lp_service.Protocol

let nproc = Domain.recommended_domain_count ()

type kind = Paper_cold | Service_warm | Gen_scale

let kinds =
  [ ("paper-cold", Paper_cold); ("service-warm", Service_warm); ("gen-scale", Gen_scale) ]

let kind_name k = fst (List.find (fun (_, k') -> k' = k) kinds)

type program = {
  name : string;  (** registry name: request [app] and golden key *)
  ast : Lp_ir.Ast.program;
  options : Flow.options;  (** the options this workload runs it with *)
  request : string;  (** the service [run] line for the same flow *)
}

type memo = {
  cand_hits : int;
  cand_misses : int;
  init_hits : int;
  init_misses : int;
  disk_hits : int;  (** both tiers *)
}

let memo_zero =
  { cand_hits = 0; cand_misses = 0; init_hits = 0; init_misses = 0; disk_hits = 0 }

let memo_now () =
  let s = Memo.stats () and i = Memo.initial_stats () in
  {
    cand_hits = s.Memo.hits;
    cand_misses = s.Memo.misses;
    init_hits = i.Memo.initial_hits;
    init_misses = i.Memo.initial_misses;
    disk_hits = s.Memo.disk_hits + i.Memo.initial_disk_hits;
  }

let memo_op f a b =
  {
    cand_hits = f a.cand_hits b.cand_hits;
    cand_misses = f a.cand_misses b.cand_misses;
    init_hits = f a.init_hits b.init_hits;
    init_misses = f a.init_misses b.init_misses;
    disk_hits = f a.disk_hits b.disk_hits;
  }

type sample = {
  prog : int;  (** index into the program array *)
  latency_s : float;
  bad : bool;  (** raised, answered ok:false, or missed its check *)
}

(* One timed phase. Sums are over all ops of the phase. *)
type phase = {
  samples : sample list;
  failures : string list;  (** distinct failure messages *)
  callers : int;  (** concurrent closed-loop callers *)
  stage_s : float array;  (** per {!Flow.all_stages} member *)
  memo : memo;
  minor_words : float;
  major_collections : int;
}

type instance = {
  programs : program array;
  phase : between:(unit -> unit) -> seconds:float -> phase;
      (** [between] runs after each round of a single-caller phase (the
          service phase's callers are threads and never call it) *)
  verify : unit -> (int * string) list;
      (** checks made after the timed phases; each entry fails every op
          of that program *)
  results : unit -> Flow.result array;
      (** one result per program, for the layer probes *)
  close : unit -> unit;
}

type config = {
  seed : int;
  corpus : string;  (** path of bench/corpus.json *)
  goldens : Golden.t;
  scratch : string;  (** directory for per-setup state (service caches) *)
}

let n_stages = List.length Flow.all_stages

(* --- programs -------------------------------------------------------- *)

let paper_names seed =
  List.map (fun (e : Apps.entry) -> e.Apps.name) Apps.all
  @ [ Printf.sprintf "gen:paper:%d" seed ]

(* The scale programs stay at the corpus seed: their cost moves by up to
   2.6x from one generator seed to the next, so runs at different seeds
   would compare the generator, not the code. *)
let scale_names = [ "gen:wide:1"; "gen:deep:1"; "gen:large:1" ]

let names kind seed =
  match kind with
  | Paper_cold | Service_warm -> paper_names seed
  | Gen_scale -> scale_names

let request_line name (o : Flow.options) ~scale =
  let opts =
    if scale then
      [ ("options", J.Assoc [ ("n_max", J.Int o.Flow.n_max); ("jobs", J.Int o.Flow.jobs) ]) ]
    else []
  in
  J.to_string (J.Assoc ([ ("cmd", J.String "run"); ("app", J.String name) ] @ opts))

let service_options () =
  match Protocol.flow_options Protocol.no_options with
  | Ok o -> o
  | Error e -> failwith e

(* Build every program, and check each generated one against its
   bench/corpus.json entry when the manifest tracks that seed. *)
let build_programs kind cfg =
  let corpus =
    match Lp_bench.Corpus.load cfg.corpus with
    | Ok entries -> entries
    | Error e -> failwith (cfg.corpus ^ ": " ^ e)
  in
  List.map
    (fun name ->
      let entry =
        match Apps.resolve name with Ok e -> e | Error e -> failwith e
      in
      let ast = entry.Apps.build () in
      (match
         List.find_opt (fun (c : Lp_bench.Corpus.entry) -> c.spec = name) corpus
       with
      | Some c when Gen.fingerprint ast <> c.fingerprint ->
          failwith
            (Printf.sprintf "%s: fingerprint %s, corpus says %s" name
               (Gen.fingerprint ast) c.fingerprint)
      | Some _ | None -> ());
      let options =
        match kind with
        | Paper_cold -> Flow.default_options
        | Service_warm -> service_options ()
        | Gen_scale ->
            let spec, _ = Result.get_ok (Gen.parse_name name) in
            { Flow.default_options with n_max = spec.Gen.clusters; jobs = 1 }
      in
      {
        name = entry.Apps.name;
        ast;
        options;
        request = request_line entry.Apps.name options ~scale:(kind = Gen_scale);
      })
    (names kind cfg.seed)
  |> Array.of_list

(* --- shared phase bookkeeping ----------------------------------------- *)

(* Major collections the program triggered itself: the forced ones are
   the compactions the benchmark makes between cold ops. *)
let gc_now () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_collections - s.Gc.forced_major_collections)

let distinct l = List.sort_uniq compare l

let to_samples (b : Stats.samples) =
  List.init b.len (fun i ->
      { prog = b.prog.(i); latency_s = Float.Array.get b.lat i; bad = b.bad.(i) })

let ok_or_exn f = try Ok (f ()) with e -> Error (Printexc.to_string e)

(* --- cold flows: paper-cold and gen-scale ------------------------------ *)

let cold kind cfg =
  let goldens = cfg.goldens in
  let programs = build_programs kind cfg in
  Memo.set_persist_dir None;
  Memo.reset ();
  let phase ~between ~seconds =
    let stage_s = Array.make n_stages 0.0 in
    let memo = ref memo_zero in
    let failures = ref [] in
    let w0, m0 = gc_now () in
    let buf = Stats.samples () in
    Stats.rounds ~between ~rng:(Random.State.make [| cfg.seed |]) ~seconds
      ~n:(Array.length programs) (fun i ->
        let p = programs.(i) in
        (* Cold as a fresh `lowpart run` process is: no memo entries and
           no garbage left over from the previous op. *)
        Memo.reset ();
        Gc.compact ();
        let r, dt =
          Stats.time (fun () ->
              ok_or_exn (fun () -> Flow.run ~options:p.options ~name:p.name p.ast))
        in
        let fail =
          match r with
          | Error e -> Some (p.name ^ ": " ^ e)
          | Ok r ->
              List.iteri
                (fun k (_, s) -> stage_s.(k) <- stage_s.(k) +. s)
                r.Flow.stage_times;
              memo := memo_op ( + ) !memo (memo_now ());
              Golden.check_flow goldens ~name:p.name r
        in
        Option.iter (fun f -> failures := f :: !failures) fail;
        Stats.record buf ~prog:i ~latency_s:dt ~bad:(fail <> None));
    let w1, m1 = gc_now () in
    {
      samples = to_samples buf;
      failures = distinct !failures;
      callers = 1;
      stage_s;
      memo = !memo;
      minor_words = w1 -. w0;
      major_collections = m1 - m0;
    }
  in
  (* Results are recomputed rather than kept from the phase: holding one
     result per program across ops pins heap pools and grows the peak RSS
     with the run length. *)
  let results () =
    Array.map (fun p -> Flow.run ~options:p.options ~name:p.name p.ast) programs
  in
  {
    programs;
    phase;
    verify = (fun () -> []);
    results;
    close = ignore;
  }

(* --- service-warm --------------------------------------------------- *)

let handle engine line =
  let out = ref "" in
  Engine.handle_line engine ~emit:(fun s -> out := s) ~on_shutdown:ignore line;
  !out

let stage_totals engine =
  let stages =
    Option.bind (J.member "stages" (Engine.stats_payload engine)) J.to_assoc_opt
    |> Option.value ~default:[]
  in
  Array.of_list
    (List.map
       (fun st ->
         Option.bind (List.assoc_opt (Flow.stage_name st) stages) J.to_float_opt
         |> Option.value ~default:0.0)
       Flow.all_stages)

let clients = 2

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let service_setups = ref 0

let service cfg =
  let goldens = cfg.goldens in
  let programs = build_programs Service_warm cfg in
  incr service_setups;
  let cache_dir =
    Filename.concat cfg.scratch
      (Printf.sprintf "cache-%d-%d" (Unix.getpid ()) !service_setups)
  in
  rm_rf cache_dir;
  Memo.reset ();
  let d = Lp_service.Server.default_config in
  let engine =
    Engine.create
      {
        Engine.workers = d.Lp_service.Server.workers;
        queue_bound = d.Lp_service.Server.queue_bound;
        timeout_s = d.Lp_service.Server.timeout_s;
        cache_dir = Some cache_dir;
        shard = None;
      }
  in
  (* Warm-up pass: every program once, cold; its responses are what each
     timed response must repeat byte for byte. *)
  let expected = Array.map (fun p -> handle engine p.request) programs in
  let expected_md5 = Array.map Digest.string expected in
  let phase ~between:_ ~seconds =
    let s0 = stage_totals engine and mm0 = memo_now () in
    let w0, m0 = gc_now () in
    let results = Array.init clients (fun _ -> Stats.samples ()) in
    let client c () =
      Stats.rounds ~rng:(Random.State.make [| cfg.seed; c |]) ~seconds
        ~n:(Array.length programs) (fun i ->
          let line, dt = Stats.time (fun () -> handle engine programs.(i).request) in
          Stats.record results.(c) ~prog:i ~latency_s:dt
            ~bad:(Digest.string line <> expected_md5.(i)))
    in
    let threads =
      List.init clients (fun c ->
          Thread.create (client c) ())
    in
    List.iter Thread.join threads;
    let w1, m1 = gc_now () in
    let s1 = stage_totals engine in
    let samples = List.concat_map to_samples (Array.to_list results) in
    {
      samples;
      callers = clients;
      failures =
        distinct
          (List.filter_map
             (fun s ->
               if s.bad then
                 Some (programs.(s.prog).name ^ ": response differs from warm-up")
               else None)
             samples);
      stage_s = Array.mapi (fun k s -> s -. s0.(k)) s1;
      memo = memo_op ( - ) (memo_now ()) mm0;
      minor_words = w1 -. w0;
      major_collections = m1 - m0;
    }
  in
  (* The warm-up responses against the goldens, and against the export of
     a direct, memo-cold Flow.run. *)
  let direct = ref [||] in
  let results () =
    if Array.length !direct = 0 then begin
      Memo.set_persist_dir None;
      Memo.reset ();
      direct :=
        Array.map
          (fun p -> Flow.run ~options:p.options ~name:p.name p.ast)
          programs
    end;
    !direct
  in
  let verify () =
    let direct = results () in
    List.concat
      (List.mapi
         (fun i p ->
           let resp = J.of_string expected.(i) in
           match (J.bool_field resp "ok", J.member "result" resp) with
           | Some true, Some payload ->
               let payload = J.to_string payload in
               let export = Lp_report.Export.result_json direct.(i) in
               List.filter_map Fun.id
                 [
                   Golden.check_payload goldens ~name:p.name payload;
                   Golden.check_flow goldens ~name:p.name direct.(i);
                   (if payload = export then None
                    else Some (p.name ^ ": service payload differs from direct export"));
                 ]
               |> List.map (fun m -> (i, m))
           | _ -> [ (i, p.name ^ ": warm-up request failed: " ^ expected.(i)) ])
         (Array.to_list programs))
  in
  {
    programs;
    phase;
    verify;
    results;
    close =
      (fun () ->
        Engine.shutdown engine;
        rm_rf cache_dir);
  }

let setup kind cfg =
  match kind with
  | Paper_cold | Gen_scale -> cold kind cfg
  | Service_warm -> service cfg

(* Goldens as this commit produces them, at seed 1: every program's flow
   under its workload's options, and the MD5 of the service payload, which
   [verify] requires to equal the direct export byte for byte. *)
let record_goldens cfg =
  let cfg = { cfg with seed = 1 } in
  let direct kind =
    let programs = build_programs kind cfg in
    Array.to_list
      (Array.map
         (fun p ->
           Memo.set_persist_dir None;
           Memo.reset ();
           (p, Flow.run ~options:p.options ~name:p.name p.ast))
         programs)
  in
  let cold = direct Paper_cold @ direct Gen_scale in
  {
    Golden.flows = List.map (fun (p, r) -> (p.name, Golden.of_result r)) cold;
    payloads =
      List.map
        (fun (p, r) ->
          (p.name, Golden.payload_digest (Lp_report.Export.result_json r)))
        (direct Service_warm);
  }

(* Closed-loop throughput: each caller completes one op per mean op
   latency. Harness work between ops (checks, compaction) is not
   counted. *)
let ops_per_s ph =
  let busy = List.fold_left (fun a s -> a +. s.latency_s) 0.0 ph.samples in
  float_of_int (ph.callers * List.length ph.samples) /. busy

(* Ops that failed inline, or whose program failed a later check
   ([verify]). failed_frac is this over the ops attempted. *)
let failed phases bad_progs =
  List.concat_map (fun ph -> ph.samples) phases
  |> List.filter (fun s -> s.bad || List.mem s.prog bad_progs)
  |> List.length
