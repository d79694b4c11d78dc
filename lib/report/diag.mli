(** Shared diagnostics plumbing for every front end (the CLI
    subcommands, the bench driver, the example drills): one options
    record covering the observability, event-journal, telemetry-server,
    race-export, parallelism and fault/budget knobs, and one bracket
    ({!with_diag}) that applies them in the right order around a run.

    The ordering matters: stores and engines snapshot the flight
    recorder, shard count, fault plan and budget when the tool is
    created, so every knob is applied {e before} the run
    thunk, and the exporters (Chrome trace, Prometheus dump, event
    journal, summary, race JSON/SARIF) run after it — the obs ones even
    when the thunk raises. *)

type opts = {
  obs_out : string option;  (** Chrome trace_event JSON path. *)
  obs_summary : bool;  (** Print the metrics summary after the run. *)
  obs_prometheus : string option;  (** Prometheus text dump path. *)
  obs_events : string option;  (** Event-journal JSON-lines path. *)
  obs_level : string option;
      (** Journal level name ([debug|info|warn|error]); bad names are a
          usage error. *)
  obs_serve : int option;
      (** Serve [/metrics], [/healthz] and [/events] on this loopback
          port for the duration of the run (0 = ephemeral). *)
  obs_sample : int;  (** Keep one span in N (1 = all). *)
  races_json : string option;
  races_sarif : string option;
  jobs : int option;
  fault_plan : string option;  (** {!Rma_fault.Plan.of_spec} syntax. *)
  budget : string option;  (** {!Rma_fault.Budget.of_spec} syntax. *)
  predictive : bool;
      (** Make predictive (weak-order schedulable-race) analysis the
          process default — the [--predictive] flag. [false] leaves the
          [RMA_PREDICTIVE] environment variable in charge. *)
}

val default : opts
(** Everything off: no exports, sequential, no plan, no budget. *)

val wants_races : opts -> bool

val wants_obs : opts -> bool
(** True when any observability output (trace, summary, Prometheus,
    journal, server) is requested — the condition under which
    {!with_diag} enables {!Rma_obs.Obs}. *)

val with_diag :
  ?prog:string ->
  ?generator:string ->
  ?workload:string * (string * string) list ->
  opts ->
  (unit -> Rma_analysis.Report.t list) ->
  unit
(** Run the thunk under the configured diagnostics and export
    afterwards. [prog] names the binary in usage-error messages (exit
    124 on a bad spec); [generator] is stamped into race exports.
    [RMA_OBS_EVENTS] / [RMA_OBS_LEVEL] are applied first, explicit
    options override them. Report ids are renumbered 1..n before
    export; when observability is on, the journal's run id is threaded
    into the race JSON/SARIF headers.

    [workload] names the run for the journal: a [run_start] record
    (component ["diag"]) carries the workload name, its parameters, the
    effective shard count and the canonical fault-plan/budget specs, and
    a [run_summary] record carries the race count and
    {!Race_export.verdict_digest} — together the coordinates
    [rma_race obs replay] needs to re-run the drill deterministically
    and check the verdicts match. Omit it for aggregate subcommands
    (suite, experiments) that are not a single replayable run. *)
