(** One run's configuration, as one value.

    Every setting that changes what a run computes or where its journal
    goes lives here: predictive mode, interleave seed, budget, and the
    journal's sink and level. The edges (the CLI, the
    bench driver, the examples, a [serve] hello, a journal's [run_start]
    record) build one value and pass its fields down as explicit
    arguments; below the edges every default is a constant
    ({!default}). Nothing here is process state, so two runs
    in one process cannot see each other's settings (DESIGN.md §20). *)

type t = {
  predictive : bool;  (** Weak-order predictive analysis. Default off. *)
  interleave_seed : int option;
      (** Fiber-interleaving seed of a kernel run; [None] draws from the
          run's [--seed]. *)
  budget : Rma_store.Budget.t option;  (** Default: unbounded stores. *)
  obs_events : string option;  (** Event-journal JSON-lines path. *)
  obs_level : Rma_obs.Events.level;  (** Journal emission filter. Default [Info]. *)
}

val default : t

val of_env : unit -> (t, string) result
(** {!default} overridden by the [RMA_PREDICTIVE]
    ([1|true|yes|on] or [0|false|no|off]), [RMA_INTERLEAVE_SEED],
    [RMA_BUDGET], [RMA_OBS_EVENTS] and [RMA_OBS_LEVEL] environment
    variables. Other variables are not read. Empty variables
    count as unset. [Error] reads
    [bad VAR "value": reason] for the first malformed variable; the
    edges treat it as a bad flag (exit 124 in the CLI). *)

val to_fields : t -> (string * string) list
(** The fields that decide a run's verdicts, as string pairs:
    [predictive], and [interleave_seed], [budget] when set (the budget
    spec in canonical form). The journal's [run_start] record carries
    exactly these. *)

val keys : string list
(** Every key {!to_fields} can write. *)

val of_fields :
  ?base:t -> ?label:(string -> string) -> (string * string) list -> (t, string) result
(** Inverse of {!to_fields} over [base] (default {!default}): a missing
    key keeps [base]'s value, keys outside {!keys} are ignored, and a
    malformed value is an [Error] reading [bad NAME "value": reason],
    where NAME is [label key] (default the key itself; the CLI names
    its flag). *)
