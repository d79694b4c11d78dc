open Rma_analysis
module Run_config = Rma_config.Run_config

let all_paper_tools = Toolbox.[ Baseline; Legacy; Must; Contribution ]

let make_tool ?(run = Run_config.default) kind ~nprocs ~config =
  Toolbox.make kind ~nprocs ~config ?budget:run.Run_config.budget
    ~predictive:run.Run_config.predictive ()

type metrics = {
  tool : string;
  nprocs : int;
  wall_seconds : float;
  epoch_time_total : float;
  epoch_time_mean : float;
  makespan : float;
  races : int;
  dropped_races : int;
  degraded_drops : int;
  nodes_final : int;
  nodes_peak : int;
  trees : int;
  inserts : int;
  fragments : int;
  merges : int;
  accesses : int;
}

let measure ~nprocs ?(config = Mpi_sim.Config.default) ?(run = Run_config.default) ~workload kind
    =
  let tool = make_tool ~run kind ~nprocs ~config in
  let observer = match kind with Toolbox.Baseline -> None | _ -> Some tool.Tool.observer in
  (* The measurement IS the span: the wall time reported in tables and
     the one exported to the Chrome trace come from the same
     Obs.time_span reading, so they cannot disagree. *)
  let result, wall =
    Rma_obs.Obs.time_span ~cat:"phase"
      (Printf.sprintf "measure %s (%d ranks)" (Toolbox.name kind) nprocs)
      (fun () -> workload ~config ~observer)
  in
  let b = tool.Tool.bst_summary () in
  let epoch_total = Array.fold_left ( +. ) 0.0 result.Mpi_sim.Runtime.epoch_times in
  {
    tool = Toolbox.name kind;
    nprocs;
    wall_seconds = wall;
    epoch_time_total = epoch_total;
    epoch_time_mean = epoch_total /. float_of_int (max 1 nprocs);
    makespan = result.Mpi_sim.Runtime.makespan;
    races = tool.Tool.race_count ();
    dropped_races = Tool.dropped_races tool;
    degraded_drops = b.Tool.degraded_drops_total;
    nodes_final = b.Tool.nodes_final_total;
    nodes_peak = b.Tool.nodes_peak_total;
    trees = b.Tool.stores;
    inserts = b.Tool.inserts_total;
    fragments = b.Tool.fragments_total;
    merges = b.Tool.merges_total;
    accesses = result.Mpi_sim.Runtime.accesses_emitted;
  }
