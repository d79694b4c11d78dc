(** Structured event journal: JSON-lines lifecycle records from the
    runtime's load-bearing seams — analyzer epoch open/close, governor
    budget degradation, and codec read errors.

    Each record is one minified JSON object with a {e stable field
    order}: [{ts; level; component; run_id; span_id; kv}].
    [ts] is trace-relative seconds (same clock as {!Obs} spans),
    [run_id] correlates every event of one process run, [span_id]
    links the event to the {!Obs.span} covering it (0 when none), and
    [kv] carries event-specific string pairs.

    Like the rest of {!Obs}, emission is a no-op until {!Obs.enable}
    runs; below that gate a per-event level filter applies. With a file
    sink set ([--obs-events FILE] / [RMA_OBS_EVENTS]) lines are
    appended and flushed as they happen; without one they land in a
    ring of the newest 4096 events, readable via {!recent} (and served as
    [/events] on a [serve] daemon's port). Emission is safe from any domain. *)

type level = Debug | Info | Warn | Error

val level_of_string : string -> level option
val severity : level -> int

type t = {
  ts : float;
  level : level;
  component : string;
  run_id : string;
  span_id : int;
  kv : (string * string) list;
}

val set_level : level -> unit
(** Minimum level kept (default [Info]; [Debug] admits per-epoch
    events). *)

val level : unit -> level

val set_sink : string -> unit
(** Route events to a fresh JSON-lines file (truncates), replacing any
    previous sink. *)

val close : unit -> unit
(** Close the file sink (if any) and fall back to the ring. *)

val clear : unit -> unit
(** Drop buffered ring events. *)

val with_run_id : string -> (unit -> 'a) -> 'a
(** Run the thunk with the given run id current, restoring the previous
    one afterwards (exception-safe). The serve daemon brackets each
    session's processing slice with this so interleaved sessions label
    their journal records correctly; tests pin golden journals' ids
    with it. *)

val run_id : unit -> string
(** The current run id, generating one on first use. *)

val emit : ?span_id:int -> ?kv:(string * string) list -> level -> string -> unit
(** [emit lvl component] records one event. No-op when
    {!Obs.is_enabled} is false or [lvl] is below {!level}. *)

val recent : unit -> t list
(** Buffered ring events, oldest first (empty while a sink is set). *)

val to_json : t -> Rma_util.Json.t
val line : t -> string
(** The minified JSON-lines form (no trailing newline). *)
