(** Typed reader and analytics for the JSON-lines event journal.

    This is the consumption half of the journal contract {!Events}
    writes: a {e total} reader in the style of the trace codec's
    ([Ok]/[Error { at_line; reason }], never an exception) that
    tolerates the two failure shapes a journal from a crashed run or a
    damaged disk actually has — a truncated final line and bit-flipped
    garbage mid-file — plus the filter and aggregation
    passes behind the [rma_race obs query] and [rma_race obs stats]
    subcommands.

    Reading stops at the first undecodable line: the events before it
    are the trustworthy prefix (journal lines are appended and flushed
    one at a time, so corruption never precedes intact records from the
    same run), and the error names the line so the operator knows how
    much of the run the analytics cover. *)

type error = { at_line : int; reason : string }
(** [at_line] is 1-based; 0 means the file itself was unreadable. *)

val error_to_string : error -> string

type read = {
  events : Events.t list;  (** The decodable prefix, in file order. *)
  lines : int;  (** Total lines consumed, including the failing one. *)
  error : error option;  (** [None] iff every line decoded. *)
}

val read_file : string -> read
(** Total: an unopenable path yields [{ events = []; lines = 0;
    error = Some { at_line = 0; _ } }]. Each line decodes on its own:
    malformed JSON, missing fields, unknown levels and ill-typed [kv]
    values stop the read with [Error]. Fields outside the record, such
    as the [shard] key older journals carry, are ignored. *)

(** {1 Filtering} *)

type filter = {
  f_component : string option;
  f_min_level : Events.level option;
  f_run_id : string option;
  f_since : float option;  (** Inclusive lower bound on [ts]. *)
  f_until : float option;  (** Inclusive upper bound on [ts]. *)
}

val no_filter : filter
val matches : filter -> Events.t -> bool
val filter_events : filter -> Events.t list -> Events.t list

(** {1 Statistics} *)

type percentiles = {
  p_count : int;
  p50 : float;
  p95 : float;
  p99 : float;  (** Exact nearest-rank percentiles, not histogram bins. *)
}

type stats = {
  total : int;
  run_ids : string list;  (** Distinct, in order of first appearance. *)
  t_min : float;
  t_max : float;
  by_component : (string * int) list;  (** Sorted by component name. *)
  by_level : (Events.level * int) list;
  epoch_overall : percentiles option;
      (** Wall time each epoch stayed open: from its [epoch_open]
          record to the [epoch_close] record sharing its [span_id]
          (seconds). The simulator runs the other ranks meanwhile, so
          this is not the analyzer's handling time. *)
  epoch_by_rank : (int * percentiles) list;
  degradations : int;
  read_errors : int;
  timeline : (int * int) list;
      (** Events per whole second of journal time, sparse, sorted. *)
}

val stats_of : Events.t list -> stats

val render_stats : ?source:string -> ?error:error -> stats -> string
(** The [rma_race obs stats] text report. [source] names the journal in
    the header; [error] appends the truncation point when the read was
    partial. *)
