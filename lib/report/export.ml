module Flow = Lp_core.Flow
module System = Lp_system.System
module J = Lp_json

let report (r : System.report) =
  J.Assoc
    [
      ("icache_j", J.Float r.System.icache_j);
      ("dcache_j", J.Float r.System.dcache_j);
      ("mem_j", J.Float r.System.mem_j);
      ("bus_j", J.Float r.System.bus_j);
      ("up_j", J.Float r.System.up_j);
      ("asic_j", J.Float r.System.asic_j);
      ("total_j", J.Float (System.total_energy_j r));
      ("up_cycles", J.Int r.System.up_cycles);
      ("stall_cycles", J.Int r.System.stall_cycles);
      ("asic_cycles", J.Int r.System.asic_cycles);
      ("total_cycles", J.Int (System.total_cycles r));
      ("instructions", J.Int r.System.instr_count);
    ]

let core (c : Flow.core) =
  J.Assoc
    [
      ("clusters", J.List (List.map (fun cid -> J.Int cid) c.Flow.core_cids));
      ("cells", J.Int c.Flow.core_cells);
      ("power_w", J.Float c.Flow.core_power_w);
      ("gate_energy_j", J.Float c.Flow.core_gate_energy_j);
      ( "instances",
        J.List
          (List.map
             (fun (k, n) ->
               J.Assoc
                 [
                   ("kind", J.String (Lp_tech.Resource.kind_to_string k));
                   ("count", J.Int n);
                 ])
             c.Flow.core_instances) );
    ]

let stages (r : Flow.result) =
  J.Assoc
    (List.map
       (fun (st, dt) -> (Flow.stage_name st, J.Float dt))
       r.Flow.stage_times)

let result ?stages:(with_stages = false) (r : Flow.result) =
  J.Assoc
    ([
       ("app", J.String r.Flow.name);
       ("energy_saving", J.Float r.Flow.energy_saving);
       ("time_change", J.Float r.Flow.time_change);
       ("total_cells", J.Int r.Flow.total_cells);
       ("clusters", J.Int (List.length r.Flow.chain));
       ("preselected", J.Int (List.length r.Flow.preselected));
       ("candidates", J.Int (List.length r.Flow.candidates));
       ( "selected",
         J.List
           (List.map
              (fun s ->
                J.Int
                  s.Flow.candidate.Lp_core.Candidate.cluster
                    .Lp_cluster.Cluster.cid)
              r.Flow.selected) );
       ("initial", report r.Flow.initial);
       ("partitioned", report r.Flow.partitioned);
       ("cores", J.List (List.map core r.Flow.cores));
     ]
    @ if with_stages then [ ("stages", stages r) ] else [])

let results ?stages rs = J.List (List.map (result ?stages) rs)
let result_json ?stages r = J.to_string (result ?stages r)

let dfg_dot dfg =
  Lp_graph.Dot.render ~name:"dfg"
    ~node_label:(fun v ->
      let info = Lp_ir.Dfg.node_info dfg v in
      match info.Lp_ir.Dfg.array with
      | Some a -> Printf.sprintf "%d: %s[%s]" v (Lp_tech.Op.to_string info.Lp_ir.Dfg.op) a
      | None -> Printf.sprintf "%d: %s" v (Lp_tech.Op.to_string info.Lp_ir.Dfg.op))
    ~node_attrs:(fun v ->
      match (Lp_ir.Dfg.node_info dfg v).Lp_ir.Dfg.op with
      | Lp_tech.Op.Load | Lp_tech.Op.Store -> [ ("shape", "box") ]
      | Lp_tech.Op.Mul | Lp_tech.Op.Div | Lp_tech.Op.Mod ->
          [ ("shape", "diamond") ]
      | _ -> [])
    (Lp_ir.Dfg.graph dfg)

let chain_dot chain =
  let g = Lp_graph.Digraph.create () in
  ignore (Lp_graph.Digraph.add_nodes g (List.length chain));
  List.iter
    (fun (c : Lp_cluster.Cluster.t) ->
      if c.cid > 0 then Lp_graph.Digraph.add_edge g (c.cid - 1) c.cid)
    chain;
  Lp_graph.Dot.render ~name:"chain"
    ~node_label:(fun v ->
      let c = List.nth chain v in
      Printf.sprintf "c%d\n%s" v
        (match c.Lp_cluster.Cluster.kind with
        | Lp_cluster.Cluster.Loop -> "loop"
        | Lp_cluster.Cluster.Branch -> "branch"
        | Lp_cluster.Cluster.Straight -> "straight"))
    ~node_attrs:(fun v ->
      if Lp_cluster.Cluster.asic_candidate (List.nth chain v) then
        [ ("shape", "box"); ("style", "rounded") ]
      else [ ("shape", "box"); ("style", "dashed") ])
    g
