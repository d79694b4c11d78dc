(** Deterministic crash replay from the event journal.

    A journal written by a diagnosed run (see {!Diag.with_diag}) carries
    everything needed to reproduce it: the [run_start] record names the
    workload, its parameters and the run configuration
    ({!Rma_config.Run_config.to_fields}: shard count, predictive mode,
    canonical fault-plan/budget specs); each [worker_crash] record pins
    the exact fault coordinate [(seed, site, ordinal)]; and the
    [run_summary] record carries the race count and
    {!Race_export.verdict_digest} of the verdicts. This module closes
    the loop: {!extract} pulls those coordinates out of a parsed
    journal, {!run} re-executes the drill in-process under the
    reconstructed plan, and the {!outcome} says whether the re-run
    crashed at the same coordinates and produced byte-identical
    verdicts (DESIGN.md §13).

    Determinism rests on {!Rma_fault.fire}: faults are a pure function
    of [(plan.seed, site, ordinal)] drawn on the submitting thread, so
    a fresh schedule of the journaled plan replays the identical fault
    sequence regardless of wall-clock interleaving. *)

type crash = {
  c_site : string;
  c_ordinal : int;  (** The per-site {!Rma_fault.ordinal} that fired. *)
  c_seed : int;  (** Plan seed journaled alongside the fault. *)
}

type plan = {
  r_run_id : string;  (** Journal run id of the original run. *)
  r_workload : string;  (** [cfd], [minivite] or [code]. *)
  r_params : (string * string) list;  (** Workload parameters, verbatim. *)
  r_config : Rma_config.Run_config.t;
      (** The original run's configuration; a key missing from an older
          journal keeps its {!Rma_config.Run_config.default}. *)
  r_crashes : crash list;  (** Worker crashes, in journal order. *)
  r_races : int option;  (** [run_summary] race count, when present. *)
  r_digest : string option;  (** [run_summary] verdict digest. *)
}

val extract : Rma_obs.Events.t list -> (plan, string) result
(** Pull the replay coordinates out of a decoded journal prefix.
    [Error] when no [run_start] record is present (the run predates the
    journal contract, or the journal was truncated before the header
    landed) or when it carries a malformed configuration value. A missing [run_summary] leaves [r_races]/[r_digest] as
    [None] — the original run crashed before finishing, and {!run}
    reports the re-run's verdicts without an equality check. *)

val describe : plan -> string
(** One paragraph naming what a replay will do, for operator preview. *)

type outcome = {
  o_races : int;  (** Race reports of the re-run. *)
  o_digest : string;  (** {!Race_export.verdict_digest} of the re-run. *)
  o_crashes : crash list;  (** Worker crashes of the re-run. *)
  o_digest_match : bool option;
      (** [Some true] iff digests are byte-identical; [None] when the
          original journal has no [run_summary] to compare against. *)
  o_crash_match : bool;
      (** Whether the re-run crashed at exactly the original
          [(site, ordinal)] sequence. *)
}

val run : plan -> (outcome, string) result
(** Re-execute the drill: build the named workload's detector from the
    journaled configuration (shard count, budget, predictive mode and a
    fresh schedule of the fault plan, every ordinal at 0), run it with
    the same parameters, and journal the re-run to a temporary file to
    recover its crash coordinates. The process-wide journal sink and
    level are restored afterwards, even on raise; nothing else is
    touched. [Error] on an unknown workload or malformed parameters —
    the journal, not this process, is the source of truth, so nothing
    is guessed. *)

val verdict : plan -> outcome -> bool
(** The replay contract: crashes match, and the digest matches when the
    original run recorded one. *)

val render : plan -> outcome -> string
(** The [rma_race obs replay] text report. *)
