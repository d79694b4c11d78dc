(** Deterministic replay from the event journal.

    A journal written by a diagnosed run (see {!Diag.with_diag}) carries
    everything needed to reproduce it: the [run_start] record names the
    workload, its parameters and the run configuration
    ({!Rma_config.Run_config.to_fields}: predictive mode, interleave
    seed, canonical budget spec), and the [run_summary] record carries the
    race count and {!Race_export.verdict_digest} of the verdicts. This
    module closes the loop: {!extract} pulls those out of a parsed
    journal, {!run} re-executes the drill in-process under the
    reconstructed configuration, and the {!outcome} says whether the
    re-run produced the same race count and byte-identical verdicts
    (DESIGN.md §13). *)

type plan = {
  r_run_id : string;  (** Journal run id of the original run. *)
  r_workload : string;  (** [cfd], [minivite] or [code]. *)
  r_params : (string * string) list;  (** Workload parameters, verbatim. *)
  r_config : Rma_config.Run_config.t;
      (** The original run's configuration; a key missing from an older
          journal keeps its {!Rma_config.Run_config.default}. *)
  r_races : int option;  (** [run_summary] race count, when present. *)
  r_digest : string option;  (** [run_summary] verdict digest. *)
}

val extract : Rma_obs.Events.t list -> (plan, string) result
(** Pull the replay coordinates out of a decoded journal prefix.
    [Error] when no [run_start] record is present (the run predates the
    journal contract, or the journal was truncated before the header
    landed) or when it carries a malformed configuration value. The
    [jobs] and [fault] keys, which journals of older versions carry,
    are skipped. A
    missing [run_summary] leaves [r_races]/[r_digest] as [None] — the
    original run stopped before finishing, and {!run} reports the
    re-run's verdicts without an equality check. *)

val describe : plan -> string
(** One paragraph naming what a replay will do, for operator preview. *)

type outcome = {
  o_races : int;  (** Race reports of the re-run. *)
  o_digest : string;  (** {!Race_export.verdict_digest} of the re-run. *)
  o_match : bool option;
      (** [Some true] iff the race count and the digest both equal the
          journaled ones; [None] when the original journal has no
          [run_summary] to compare against. *)
}

val run : plan -> (outcome, string) result
(** Re-execute the drill: build the named workload's detector from the
    journaled configuration (budget and predictive mode) and run it
    with the same parameters. [Error] on an unknown workload or
    malformed parameters — the journal, not this process, is the source
    of truth, so nothing is guessed. *)

val verdict : outcome -> bool
(** The replay contract: the race count and the digest match when the
    original run recorded them. *)

val render : plan -> outcome -> string
(** The [rma_race obs replay] text report. *)
