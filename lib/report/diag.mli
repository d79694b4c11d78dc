(** Shared diagnostics plumbing for the CLI subcommands and the example
    drills: one options record covering the observability,
    event-journal, race-export and budget flags, and one bracket
    ({!with_diag}) around a run.

    The bracket reads the environment once
    ({!Rma_config.Run_config.of_env}), lays the flags over it, and hands
    the resulting configuration to the thunk, which passes it to every
    tool and writer it creates. The
    exporters (Chrome trace, Prometheus dump, event journal, summary,
    race JSON/SARIF) run after the thunk — the obs ones even when it
    raises. *)

type opts = {
  obs_out : string option;  (** Chrome trace_event JSON path. *)
  obs_summary : bool;  (** Print the metrics summary after the run. *)
  obs_prometheus : string option;  (** Prometheus text dump path. *)
  obs_events : string option;  (** Event-journal JSON-lines path. *)
  obs_level : string option;
      (** Journal level name ([debug|info|warn|error]); bad names are a
          usage error. *)
  races_json : string option;
  races_sarif : string option;
  budget : string option;  (** {!Rma_store.Budget.of_spec} syntax. *)
  predictive : bool;
      (** The [--predictive] flag: [true] turns predictive (weak-order
          schedulable-race) analysis on; [false] leaves
          [RMA_PREDICTIVE] in charge. *)
  interleave_seed : int option;  (** The [--interleave-seed] flag, where a subcommand has it. *)
}

val default : opts
(** Everything off: no exports, no budget. *)

val wants_races : opts -> bool

val run_config : prog:string -> opts -> Rma_config.Run_config.t
(** The environment's configuration with the flags of [opts] laid over
    it. A malformed environment variable or flag value prints
    [prog: bad NAME "value": reason] and exits 124. *)

val with_obs : opts -> Rma_config.Run_config.t -> (unit -> 'a) -> 'a
(** The observability half of {!with_diag}, for drivers that journal no
    single run (the bench): when an obs output is requested
    ([obs_out], [obs_summary], [obs_prometheus], or the run's
    [obs_events]), enable {!Rma_obs.Obs}; set the journal level and
    sink from the run; run the thunk; then — even if it raises — take
    one {!Rma_obs.Telemetry.sample} and write the Chrome trace, the
    Prometheus dump and the summary, and close the journal. The
    race-export fields of [opts] are not consulted. *)

val renumber : Rma_analysis.Report.t list -> Rma_analysis.Report.t list
(** Give the reports the ids 1..n in list order. Ids are per tool run,
    so a subcommand aggregating several runs (suite) would export
    duplicates; for a single run, whose stored reports are already
    sequential, this is the identity. {!with_diag} applies it before it
    exports or digests, and {!Replay.run} before it digests. *)

val with_diag :
  ?prog:string ->
  ?generator:string ->
  ?workload:string * (string * string) list ->
  opts ->
  (Rma_config.Run_config.t -> Rma_analysis.Report.t list) ->
  unit
(** Run the thunk under the configured diagnostics and export
    afterwards. The thunk receives {!run_config}; it must hand it to
    every tool it creates. [prog] names the binary in usage-error
    messages; [generator] is stamped into race exports. Report ids are
    renumbered 1..n before export; when observability is on, the
    journal's run id is threaded into the race JSON/SARIF headers.

    [workload] names the run for the journal: a [run_start] record
    (component ["diag"]) carries the workload name, its parameters and
    {!Rma_config.Run_config.to_fields} of the configuration, and
    a [run_summary] record carries the race count and
    {!Race_export.verdict_digest} — together the coordinates
    [rma_race obs replay] needs to re-run the drill deterministically
    and check the verdicts match. Omit it for aggregate subcommands
    (suite, experiments) that are not a single replayable run. *)
