open Rma_access
open Rma_store
open Rma_analysis
open Rma_microbench
module Table = Rma_util.Text_table


let mark = function true -> "X" | false -> "-"

(* ------------------------------------------------------------------ *)
(* Table 2                                                              *)
(* ------------------------------------------------------------------ *)

type verdict_row = { code : string; legacy : bool; must : bool; contribution : bool }

let table2_codes =
  [
    "ll_get_load_outwindow_origin_race";
    "ll_get_get_inwindow_origin_safe";
    "ll_get_load_inwindow_origin_race";
    "ll_load_get_inwindow_origin_safe";
  ]

let suite_tool ?run kind =
  Harness.make_tool ?run kind ~nprocs:3 ~config:Mpi_sim.Config.default

let table2 ?run () =
  let legacy = suite_tool ?run Toolbox.Legacy in
  let must = suite_tool ?run Toolbox.Must in
  let contribution = suite_tool ?run Toolbox.Contribution in
  let rows =
    List.map
      (fun code ->
        match Scenario.find code with
        | None -> failwith ("unknown microbenchmark " ^ code)
        | Some s ->
            {
              code;
              legacy = (Runner.run ~tool:legacy s).Runner.flagged;
              must = (Runner.run ~tool:must s).Runner.flagged;
              contribution = (Runner.run ~tool:contribution s).Runner.flagged;
            })
      table2_codes
  in
  let t =
    Table.create
      ~title:
        "Table 2 — tool verdicts on four microbenchmark codes (X = error detected, - = no error)"
      ~columns:
        [ ("Code", Table.Left); ("RMA-Analyzer", Table.Center); ("MUST-RMA", Table.Center);
          ("Our Contribution", Table.Center) ]
      ()
  in
  List.iter
    (fun r -> Table.add_row t [ r.code; mark r.legacy; mark r.must; mark r.contribution ])
    rows;
  (rows, Table.render t)

(* ------------------------------------------------------------------ *)
(* Table 3                                                              *)
(* ------------------------------------------------------------------ *)

type confusion_row = { tool : string; fp : int; fn : int; tp : int; tn : int; dropped : int }

let table3 ?run () =
  let score name tool =
    let c = Runner.score ~tool Scenario.all in
    { tool = name; fp = c.Runner.fp; fn = c.Runner.fn; tp = c.Runner.tp; tn = c.Runner.tn;
      dropped = c.Runner.dropped }
  in
  let rows =
    [
      score "RMA-Analyzer" (suite_tool ?run Toolbox.Legacy);
      score "MUST-RMA" (suite_tool ?run Toolbox.Must);
      score "Our Contribution" (suite_tool ?run Toolbox.Contribution);
    ]
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Table 3 — confusion matrix over the %d-code suite (%d racy / %d safe)"
           Scenario.count_total Scenario.count_racy Scenario.count_safe)
      ~columns:
        [ ("", Table.Left); ("RMA-Analyzer", Table.Right); ("MUST-RMA", Table.Right);
          ("Our Contribution", Table.Right) ]
      ()
  in
  let cell f = List.map (fun r -> string_of_int (f r)) rows in
  List.iter2
    (fun label cells -> Table.add_row t (label :: cells))
    [ "FP"; "FN"; "TP"; "TN"; "Dropped reports" ]
    [ cell (fun r -> r.fp); cell (fun r -> r.fn); cell (fun r -> r.tp); cell (fun r -> r.tn);
      cell (fun r -> r.dropped) ];
  (rows, Table.render t)

(* ------------------------------------------------------------------ *)
(* MiniVite / CFD-Proxy workload wrappers                               *)
(* ------------------------------------------------------------------ *)

let minivite_params ~scale ~vertices_base =
  let n_vertices = max 1_000 (int_of_float (float_of_int vertices_base *. scale)) in
  (* The locality window shrinks with the input so the chunk-to-window
     ratio — which controls how many ranks share a boundary vertex —
     stays the same as at paper scale. *)
  let locality_window = max 20 (int_of_float (400.0 *. scale)) in
  {
    Minivite.Louvain.default_params with
    Minivite.Louvain.graph =
      { Minivite.Graph.default_params with Minivite.Graph.n_vertices; locality_window };
    compute_per_edge = 6.0e-6;
  }

let minivite_workload params ~nprocs ~config ~observer =
  let result, _ = Minivite.Louvain.run params ~nprocs ~config ?observer () in
  result

let perf_config = { Mpi_sim.Config.default with Mpi_sim.Config.analysis_overhead_scale = 2.0 }

(* ------------------------------------------------------------------ *)
(* Table 4                                                              *)
(* ------------------------------------------------------------------ *)

type table4_row = {
  ranks : int;
  vertices : int;
  legacy_nodes : int;
  contribution_nodes : int;
  legacy_peak : int;
  contribution_peak : int;
  reduction : float;
}

let default_rank_sweep = [ 32; 64; 128; 256 ]

let table4 ?(scale = 0.1) ?(ranks = default_rank_sweep) ?run () =
  let rows =
    List.concat_map
      (fun vertices_base ->
        List.map
          (fun nprocs ->
            let params = minivite_params ~scale ~vertices_base in
            let workload ~config ~observer = minivite_workload params ~nprocs ~config ~observer in
            let measure = Harness.measure ~nprocs ~config:perf_config ?run ~workload in
            let legacy = measure Toolbox.Legacy in
            let contribution = measure Toolbox.Contribution in
            let nl = legacy.Harness.nodes_final and nc = contribution.Harness.nodes_final in
            {
              ranks = nprocs;
              vertices = params.Minivite.Louvain.graph.Minivite.Graph.n_vertices;
              legacy_nodes = nl;
              contribution_nodes = nc;
              legacy_peak = legacy.Harness.nodes_peak;
              contribution_peak = contribution.Harness.nodes_peak;
              reduction = float_of_int (nl - nc) /. float_of_int (max 1 nl);
            })
          ranks)
      [ 640_000; 1_280_000 ]
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Table 4 — BST nodes for MiniVite (inputs scaled by %.2f; paper reports per-process \
            trees shrinking from 88k to 15k with rank count, reductions 0.04%%-6.29%%)"
           scale)
      ~columns:
        [ ("Ranks", Table.Right); ("Vertices", Table.Right); ("RMA-Analyzer", Table.Right);
          ("Our Contribution", Table.Right); ("Peak (legacy)", Table.Right);
          ("Peak (contrib.)", Table.Right); ("Legacy / rank", Table.Right);
          ("Reduction of Nodes", Table.Right) ]
      ()
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          string_of_int r.ranks; string_of_int r.vertices; string_of_int r.legacy_nodes;
          string_of_int r.contribution_nodes; string_of_int r.legacy_peak;
          string_of_int r.contribution_peak; string_of_int (r.legacy_nodes / max 1 r.ranks);
          Table.cell_percent r.reduction;
        ])
    rows;
  (rows, Table.render t)

(* ------------------------------------------------------------------ *)
(* Figure 5                                                             *)
(* ------------------------------------------------------------------ *)

let code1_accesses =
  let dbg line op = Debug_info.make ~file:"code1.c" ~line ~operation:op in
  [
    Access.make ~interval:(Interval.byte 4) ~kind:Access_kind.Local_read ~issuer:0 ~seq:1
      ~debug:(dbg 1 "Load");
    Access.make ~interval:(Interval.make ~lo:2 ~hi:12) ~kind:Access_kind.Rma_read ~issuer:0 ~seq:2
      ~debug:(dbg 2 "MPI_Put");
    Access.make ~interval:(Interval.byte 7) ~kind:Access_kind.Local_write ~issuer:0 ~seq:3
      ~debug:(dbg 3 "Store");
  ]

let fig5 () =
  let buf = Buffer.create 1024 in
  let say fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  say "Figure 5 — Code 1 (Load(4); MPI_Put(2,12); Store(7)) in both stores";
  say "";
  say "(a) Legacy RMA-Analyzer: lower-bound search misses [2...12] when inserting [7]:";
  let legacy = Legacy_store.create () in
  List.iter
    (fun a -> say "  insert %s -> %s" (Access.to_string a)
        (match Legacy_store.insert legacy a with
        | Store_intf.Inserted -> "inserted (no race seen)"
        | Store_intf.Race_detected _ -> "RACE"))
    code1_accesses;
  say "  final tree:";
  say "%s" (Format.asprintf "%a" Legacy_store.pp legacy);
  say "(b) Fragmentation only (no merging), after Load(4) and MPI_Put(2,12):";
  let frag = Disjoint_store.create ~merge:false () in
  List.iteri
    (fun i a -> if i < 2 then ignore (Disjoint_store.insert frag a))
    code1_accesses;
  say "%s" (Format.asprintf "%a" Disjoint_store.pp frag);
  say "(c) Our contribution detects the race at Store(7):";
  let store = Disjoint_store.create () in
  List.iter
    (fun a ->
      match Disjoint_store.insert store a with
      | Store_intf.Inserted -> say "  insert %s -> inserted" (Access.to_string a)
      | Store_intf.Race_detected { existing; incoming } ->
          say "  insert %s -> RACE against %s" (Access.to_string incoming)
            (Access.to_string existing))
    code1_accesses;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Figure 8                                                             *)
(* ------------------------------------------------------------------ *)

type fig8_result = { legacy_nodes : int; contribution_nodes : int; final_get_flagged : bool }

let code2_feed insert =
  (* The paper's counting for Code 2: per iteration the four accesses of
     the loop variable i plus the origin-side RMA_Write of buf[i], plus
     the initial access of i — 5 001 accesses; the trailing
     MPI_Get(buf[0],1,X) is issued separately. *)
  let dbg line op = Debug_info.make ~file:"code2.c" ~line ~operation:op in
  let seq = ref 0 in
  let next () = incr seq; !seq in
  let i_addr = 50_000 in
  let acc ~line ~op lo hi kind =
    Access.make ~interval:(Interval.make ~lo ~hi) ~kind ~issuer:0 ~seq:(next ()) ~debug:(dbg line op)
  in
  ignore (insert (acc ~line:1 ~op:"Store" i_addr i_addr Access_kind.Local_write));
  for i = 0 to 999 do
    ignore (insert (acc ~line:1 ~op:"Load" i_addr i_addr Access_kind.Local_read));
    ignore (insert (acc ~line:2 ~op:"Load" i_addr i_addr Access_kind.Local_read));
    ignore (insert (acc ~line:2 ~op:"MPI_Get" i i Access_kind.Rma_write));
    ignore (insert (acc ~line:1 ~op:"Load" i_addr i_addr Access_kind.Local_read));
    ignore (insert (acc ~line:1 ~op:"Store" i_addr i_addr Access_kind.Local_write))
  done;
  insert (acc ~line:4 ~op:"MPI_Get" 0 0 Access_kind.Rma_write)

let fig8 () =
  let legacy = Legacy_store.create () in
  let _ = code2_feed (Legacy_store.insert legacy) in
  let contribution = Disjoint_store.create () in
  let final = code2_feed (Disjoint_store.insert contribution) in
  let flagged = match final with Store_intf.Race_detected _ -> true | Store_intf.Inserted -> false in
  let result =
    {
      legacy_nodes = Legacy_store.size legacy;
      contribution_nodes = Disjoint_store.size contribution;
      final_get_flagged = flagged;
    }
  in
  let t =
    Table.create
      ~title:
        "Figure 8b — Code 2 (1000 adjacent one-byte MPI_Gets in a loop): BST population \
         (paper: 5,002 vs 2 nodes)"
      ~columns:[ ("Store", Table.Left); ("Nodes", Table.Right); ("Note", Table.Left) ]
      ()
  in
  Table.add_row t
    [ "RMA-Analyzer"; string_of_int result.legacy_nodes; "one node per access" ];
  Table.add_row t
    [
      "Our Contribution"; string_of_int result.contribution_nodes;
      "loop variable + merged gets";
    ];
  Table.add_row t
    [
      "trailing MPI_Get(buf[0])";
      (if result.final_get_flagged then "RACE" else "ok");
      "duplicate origin-buffer write (Figure 3 GET/GET cell)";
    ];
  (result, Table.render t)

(* ------------------------------------------------------------------ *)
(* Figure 9                                                             *)
(* ------------------------------------------------------------------ *)

let fig9 ?run () =
  let nprocs = 4 in
  let params =
    {
      (minivite_params ~scale:0.02 ~vertices_base:640_000) with
      Minivite.Louvain.inject_race = true;
    }
  in
  let tool =
    Harness.make_tool ?run Toolbox.Contribution ~nprocs ~config:Mpi_sim.Config.default
  in
  let _ = Minivite.Louvain.run params ~nprocs ~observer:tool.Tool.observer () in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "Figure 9 — duplicated MPI_Put injected into MiniVite (dspl.hpp:612/614)\n\n";
  Buffer.add_string buf "$ mpiexec -n 4 ./miniVite -l -n 12800\n";
  (match tool.Tool.races () with
  | [] -> Buffer.add_string buf "(no race detected — unexpected)\n"
  | r :: _ ->
      Buffer.add_string buf (Report.to_message r);
      Buffer.add_char buf '\n');
  Buffer.add_string buf
    (Printf.sprintf "(%d conflicting insertions reported in total)\n" (tool.Tool.race_count ()));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Figures 10-12                                                        *)
(* ------------------------------------------------------------------ *)

type perf_row = {
  tool : string;
  nprocs : int;
  epoch_time : float;
  exec_time : float;
  wall : float;
  nodes : int;
  nodes_peak : int;
  races : int;
  dropped : int;
  degraded : int;
}

let perf_row_of_metrics (m : Harness.metrics) =
  {
    tool = m.Harness.tool;
    nprocs = m.Harness.nprocs;
    epoch_time = m.Harness.epoch_time_mean;
    exec_time = m.Harness.makespan;
    wall = m.Harness.wall_seconds;
    nodes = (if m.Harness.trees > 0 then m.Harness.nodes_final / m.Harness.trees else 0);
    nodes_peak = m.Harness.nodes_peak;
    races = m.Harness.races;
    dropped = m.Harness.dropped_races;
    degraded = m.Harness.degraded_drops;
  }

(* Race counts render with their truncation and degradation: "1203 (203
   dropped)" says the stored list stops at the report cap; "degraded:4"
   says the governor spilled or coarsened 4 nodes, so the verdict is
   best-effort (DESIGN.md §11). *)
let cell_reports r =
  let base =
    if r.dropped > 0 then Printf.sprintf "%d (%d dropped)" r.races r.dropped
    else string_of_int r.races
  in
  if r.degraded > 0 then Printf.sprintf "%s [degraded:%d]" base r.degraded else base

let fig10 ?run () =
  let nprocs = 12 and params = Cfd_proxy.Halo.default_params in
  let workload ~config ~observer =
    let result, _ = Cfd_proxy.Halo.run params ~nprocs ~config ?observer () in
    result
  in
  let rows =
    (* Detector cost is measured wall time; taking the best of a few
       repetitions suppresses scheduling noise on a shared machine. *)
    List.map
      (fun kind ->
        let runs =
          List.init 2 (fun _ ->
              perf_row_of_metrics
                (Harness.measure ~nprocs ~config:perf_config ?run ~workload kind))
        in
        List.fold_left
          (fun best r -> if r.epoch_time < best.epoch_time then r else best)
          (List.hd runs) (List.tl runs))
      Harness.all_paper_tools
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Figure 10 — CFD-Proxy, %d ranks, %d iterations: mean per-rank time spent in epochs \
            (paper: baseline ~0.4s, contribution about half of RMA-Analyzer, MUST-RMA worst)"
           nprocs params.Cfd_proxy.Halo.iterations)
      ~columns:
        [ ("Method", Table.Left); ("Epoch time (s)", Table.Right);
          ("BST nodes (per tree)", Table.Right); ("Peak nodes", Table.Right);
          ("Reports", Table.Right) ]
      ()
  in
  List.iter
    (fun r ->
      Table.add_row t
        [ r.tool; Table.cell_float ~decimals:3 r.epoch_time; string_of_int r.nodes;
          string_of_int r.nodes_peak; cell_reports r ])
    rows;
  let chart =
    Rma_util.Chart.bar_chart ~unit_label:"s" ~title:"Cumulative time spent in epoch (mean per rank)"
      (List.map (fun r -> (r.tool, r.epoch_time)) rows)
  in
  (rows, Table.render t ^ "\n" ^ chart)

let minivite_figure ~figure ~vertices_base ?(scale = 0.1) ?(ranks = default_rank_sweep) ?run () =
  let rows =
    List.concat_map
      (fun nprocs ->
        let params = minivite_params ~scale ~vertices_base in
        let workload ~config ~observer = minivite_workload params ~nprocs ~config ~observer in
        List.map
          (fun kind ->
            perf_row_of_metrics
              (Harness.measure ~nprocs ~config:perf_config ?run ~workload kind))
          Harness.all_paper_tools)
      ranks
  in
  let vertices =
    (minivite_params ~scale ~vertices_base).Minivite.Louvain.graph.Minivite.Graph.n_vertices
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Figure %d — MiniVite execution time (simulated ms), %s vertices (paper input scaled \
            by %.2f)"
           figure (string_of_int vertices) scale)
      ~columns:
        [ ("Ranks", Table.Right); ("Method", Table.Left); ("Execution time (ms)", Table.Right);
          ("BST nodes (per tree)", Table.Right); ("Peak nodes", Table.Right);
          ("Reports", Table.Right) ]
      ()
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          string_of_int r.nprocs; r.tool; Table.cell_float ~decimals:1 (r.exec_time *. 1000.0);
          string_of_int r.nodes; string_of_int r.nodes_peak; cell_reports r;
        ])
    rows;
  let groups =
    List.map
      (fun nprocs ->
        ( string_of_int nprocs,
          List.filter_map
            (fun r -> if r.nprocs = nprocs then Some (r.tool, r.exec_time *. 1000.0) else None)
            rows ))
      (List.sort_uniq compare (List.map (fun r -> r.nprocs) rows))
  in
  let chart =
    Rma_util.Chart.grouped_bar_chart ~unit_label:"ms" ~title:"Execution time" ~group_label:"ranks ="
      groups
  in
  (rows, Table.render t ^ "\n" ^ chart)

let fig11 ?scale ?ranks ?run () =
  minivite_figure ~figure:11 ~vertices_base:640_000 ?scale ?ranks ?run ()

let fig12 ?scale ?ranks ?run () =
  minivite_figure ~figure:12 ~vertices_base:1_280_000 ?scale ?ranks ?run ()

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)
(* ------------------------------------------------------------------ *)

type ablation_row = { variant : string; nodes : int; races : int; wall : float }

let ablation ?run () =
  (* (1) Code 2 loop under the three store variants: merging is what
     keeps the tree small; (2) the order-blind rule re-creates the
     legacy false positives on the suite. *)
  let loop_variant name mk =
    let store = mk () in
    let insert = Disjoint_store.insert store in
    let t0 = Rma_util.Timer.now () in
    let _ = code2_feed insert in
    let wall = Rma_util.Timer.now () -. t0 in
    { variant = name; nodes = Disjoint_store.size store; races = 0; wall }
  in
  let rows =
    [
      loop_variant "Code2 / fragmentation-only" (fun () -> Disjoint_store.create ~merge:false ());
      loop_variant "Code2 / fragmentation+merging" (fun () -> Disjoint_store.create ());
    ]
  in
  (* A MiniVite-like stride-16 access stream: no two accesses touch, so
     plain merging keeps one node per access (the paper's §6(3) remark). *)
  let stream_row =
    let d = Disjoint_store.create () in
    let t0 = Rma_util.Timer.now () in
    for i = 0 to 1_999 do
      ignore
        (Disjoint_store.insert d
           (Access.make
              ~interval:(Interval.of_range ~addr:(i * 16) ~len:8)
              ~kind:Access_kind.Rma_read ~issuer:0 ~seq:(i + 1)
              ~debug:(Debug_info.make ~file:"./dspl.hpp" ~line:501 ~operation:"MPI_Get")))
    done;
    let wall = Rma_util.Timer.now () -. t0 in
    { variant = "MiniVite stream / contribution"; nodes = Disjoint_store.size d; races = 0; wall }
  in
  let rows = rows @ [ stream_row ] in
  let suite_variant name kind =
    let tool = suite_tool ?run kind in
    let t0 = Rma_util.Timer.now () in
    let c = Runner.score ~tool Scenario.all in
    let wall = Rma_util.Timer.now () -. t0 in
    { variant = name; nodes = 0; races = c.Runner.fp; wall }
  in
  let rows =
    rows
    @ [
        suite_variant "Suite FPs / order-blind rule" Toolbox.Order_blind;
        suite_variant "Suite FPs / order-aware rule" Toolbox.Contribution;
      ]
  in
  let t =
    Table.create ~title:"Ablations — why merging and order-awareness are both needed"
      ~columns:
        [ ("Variant", Table.Left); ("Nodes", Table.Right); ("False positives", Table.Right);
          ("Wall (s)", Table.Right) ]
      ()
  in
  List.iter
    (fun r ->
      Table.add_row t
        [ r.variant; string_of_int r.nodes; string_of_int r.races; Table.cell_float ~decimals:3 r.wall ])
    rows;
  (rows, Table.render t)

(* ------------------------------------------------------------------ *)
(* CSV export                                                           *)
(* ------------------------------------------------------------------ *)

let export ~dir ?scale ?ranks ?run experiments =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path name = Filename.concat dir (name ^ ".csv") in
  let b = string_of_bool in
  List.iter
    (fun experiment ->
      match experiment with
      | "table2" ->
          let rows, _ = table2 ?run () in
          Csv.write ~path:(path "table2")
            ~header:[ "code"; "rma_analyzer"; "must_rma"; "contribution" ]
            (List.map (fun r -> [ r.code; b r.legacy; b r.must; b r.contribution ]) rows)
      | "table3" ->
          let rows, _ = table3 ?run () in
          Csv.write ~path:(path "table3")
            ~header:[ "tool"; "fp"; "fn"; "tp"; "tn"; "dropped_reports" ]
            (List.map
               (fun (r : confusion_row) ->
                 [ r.tool; string_of_int r.fp; string_of_int r.fn; string_of_int r.tp;
                   string_of_int r.tn; string_of_int r.dropped ])
               rows)
      | "table4" ->
          let rows, _ = table4 ?scale ?ranks ?run () in
          Csv.write ~path:(path "table4")
            ~header:
              [ "ranks"; "vertices"; "legacy_nodes"; "contribution_nodes"; "legacy_peak";
                "contribution_peak"; "reduction" ]
            (List.map
               (fun r ->
                 [ string_of_int r.ranks; string_of_int r.vertices; string_of_int r.legacy_nodes;
                   string_of_int r.contribution_nodes; string_of_int r.legacy_peak;
                   string_of_int r.contribution_peak; Printf.sprintf "%.6f" r.reduction ])
               rows)
      | "fig10" | "fig11" | "fig12" ->
          let rows, _ =
            match experiment with
            | "fig10" -> fig10 ?run ()
            | "fig11" -> fig11 ?scale ?ranks ?run ()
            | _ -> fig12 ?scale ?ranks ?run ()
          in
          Csv.write ~path:(path experiment)
            ~header:
              [ "ranks"; "tool"; "epoch_time_s"; "exec_time_s"; "nodes_per_tree"; "nodes_peak";
                "reports"; "dropped_reports" ]
            (List.map
               (fun (r : perf_row) ->
                 [ string_of_int r.nprocs; r.tool; Printf.sprintf "%.6f" r.epoch_time;
                   Printf.sprintf "%.6f" r.exec_time; string_of_int r.nodes;
                   string_of_int r.nodes_peak; string_of_int r.races; string_of_int r.dropped ])
               rows)
      | "ablation" ->
          let rows, _ = ablation ?run () in
          Csv.write ~path:(path "ablation")
            ~header:[ "variant"; "nodes"; "false_positives"; "wall_s" ]
            (List.map
               (fun (r : ablation_row) ->
                 [ r.variant; string_of_int r.nodes; string_of_int r.races;
                   Printf.sprintf "%.6f" r.wall ])
               rows)
      | "suite" -> C_source.emit_all_to ~dir:(Filename.concat dir "microbench_suite")
      | other -> invalid_arg (Printf.sprintf "Experiments.export: unknown experiment %S" other))
    experiments
