(** Shared machinery for the paper-reproduction experiments: tool
    construction, instrumented runs, and the metrics every table/figure
    reads. *)

val all_paper_tools : Rma_analysis.Toolbox.kind list
(** The four configurations of Figures 10–12: baseline, legacy,
    MUST-RMA, contribution. *)

val make_tool :
  ?run:Rma_config.Run_config.t ->
  Rma_analysis.Toolbox.kind ->
  nprocs:int ->
  config:Mpi_sim.Config.t ->
  Rma_analysis.Tool.t
(** A detector in [Collect] mode (complete runs, like the paper's
    performance experiments) with [run]'s budget and predictive mode
    (default {!Rma_config.Run_config.default}). The CLI, the bench, the
    daemon and the journal replay build their detectors here too. *)

type metrics = {
  tool : string;
  nprocs : int;
  wall_seconds : float;  (** Real time of the whole simulated run. *)
  epoch_time_total : float;  (** Sum over ranks of simulated epoch time. *)
  epoch_time_mean : float;
  makespan : float;  (** Simulated end-to-end time (max rank clock). *)
  races : int;
  dropped_races : int;
      (** Reports past the {!Rma_analysis.Tool.max_reports} cap —
          nonzero means the tables above under-show the stored race list
          (truncation made visible, satellite of the provenance
          pipeline). *)
  degraded_drops : int;
      (** Interval nodes spilled or coarsened away by the resource
          governor ({!Rma_store.Budget}) across every store the tool
          created. Nonzero means the run finished in degraded mode: the
          verdict is best-effort, and its races carry
          [provenance.degraded = true] (see DESIGN.md §11). *)
  nodes_final : int;
  nodes_peak : int;
  trees : int;  (** (rank, window) trees the tool created. *)
  inserts : int;
  fragments : int;
  merges : int;
  accesses : int;  (** Instrumented accesses emitted by the run. *)
}

val measure :
  nprocs:int ->
  ?config:Mpi_sim.Config.t ->
  ?run:Rma_config.Run_config.t ->
  workload:
    (config:Mpi_sim.Config.t -> observer:Mpi_sim.Event.observer option -> Mpi_sim.Runtime.result) ->
  Rma_analysis.Toolbox.kind ->
  metrics
(** Runs the workload once under the given tool and collects metrics.
    The workload receives [None] for the baseline so it costs exactly
    nothing, and must run its simulation under the config it is given.
    The tool is {!make_tool}'s. *)
