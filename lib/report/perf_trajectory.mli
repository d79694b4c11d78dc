(** The bench harness's perf-trajectory format: one schema-versioned
    JSON record per [bench/main.exe --json] run, with one sample per
    experiment (wall seconds plus a flat metric bag: simulated times,
    BST node counts, confusion-matrix cells, Obs counter snapshot), and
    the comparison logic behind [bench/main.exe --compare old new].

    The record is what turns the checked-in BENCH_*.json files from
    prose into a regression signal: CI regenerates the record at CI
    scale and diffs it against the previous PR's, flagging any
    lower-is-better metric that grew past a threshold. *)

type sample = {
  name : string;  (** Experiment name: "table3", "fig10", "micro"... *)
  wall_seconds : float;  (** Real time of the whole experiment. *)
  peak_rss_bytes : float;
      (** Process peak RSS by the end of the experiment
          ({!Rma_obs.Telemetry.peak_rss_bytes}; monotone across a bench
          run). Gated in comparisons with its own, looser threshold
          (default +100%, [--rss-threshold] overrides it). 0.0 in
          records written before the field existed — comparisons skip
          zeros. *)
  events_per_sec : float;
      (** Store events processed per wall second during the experiment.
          Gated as {e higher}-is-better: a drop past the threshold
          (default -50%, [--events-threshold] overrides it) regresses.
          Zeros skipped as above. *)
  critical_path_ms : float;
      (** Accumulated parallel-engine critical path over the experiment
          ({!Rma_par.critical_path_total} delta; DESIGN.md §13).
          Informational — the number that explains a speedup ceiling,
          not a gate. *)
  metrics : (string * float) list;  (** Flat, insertion-ordered. *)
}

type record = {
  schema_version : int;
  generator : string;
  scale : float;  (** MiniVite input scale the record was produced at. *)
  samples : sample list;
  counters : (string * int) list;  (** Obs counter snapshot after the run. *)
}

val schema_version : int
(** 1. *)

val make : generator:string -> scale:float -> sample list -> record
(** Stamps the current schema version and appends the current Obs
    counter values. *)

val to_json : record -> Rma_util.Json.t

val of_json : Rma_util.Json.t -> (record, string) result

val write : path:string -> record -> unit

val load : path:string -> (record, string) result

(** {1 Comparison} *)

type delta = {
  sample_name : string;
  metric : string;  (** ["wall_seconds"] or a metric-bag key. *)
  old_value : float;
  new_value : float;
  ratio : float;  (** [new / old]; 1.0 when both are 0. *)
  regression : bool;
      (** The metric is lower-is-better and grew by more than the
          threshold. *)
}

val lower_is_better : string -> bool
(** Time-like and size-like metrics ("...seconds", "...time...",
    "...ns...", "...nodes...", "...dropped...") regress upward; anything
    else is reported as change only. *)

val compare_records :
  ?threshold:float -> ?rss_threshold:float -> ?eps_threshold:float -> record -> record ->
  delta list
(** All metric pairs present in both records, in the old record's order.
    [threshold] is the tolerated relative growth of lower-is-better
    metrics before a delta counts as a regression (default 0.5 = +50%),
    with an absolute floor: sub-millisecond wall times never regress
    (pure scheduling noise). The telemetry fields gate separately:
    [rss_threshold] bounds [peak_rss_bytes] growth (default 1.0 =
    +100%) and [eps_threshold] bounds [events_per_sec] {e shrinkage}
    (default 0.5 = -50%);
    both skip samples whose baseline value is 0 (records predating the
    fields). [critical_path_ms] is compared but never regresses.
    Identical records yield only [ratio = 1.0, regression = false]
    deltas. *)

val regressions : delta list -> delta list

val missing_from_baseline : old_record:record -> new_record:record -> string list
(** Experiment names sampled in the current run but absent from the
    baseline — a stale checked-in baseline, not comparable data.
    Empty when the baseline covers every current experiment. *)

val missing_from_candidate : old_record:record -> new_record:record -> string list
(** The other direction: baseline experiments the candidate run never
    sampled. Nonempty means the run dropped coverage (an experiment was
    deselected, renamed, or crashed out), so its metrics would silently
    stop being tracked. *)

val render_comparison :
  ?threshold:float -> ?rss_threshold:float -> ?eps_threshold:float -> old_record:record ->
  new_record:record -> unit -> string * bool
(** Human-readable per-metric table plus a verdict line; the boolean is
    [true] when at least one regression fired {e or} either record lacks
    an experiment the other has ({!missing_from_baseline} /
    {!missing_from_candidate} — the verdict line then names the missing
    experiments; a clear failure instead of silently skipping the
    untracked experiment in either direction). *)
