(** Process-wide observability registry: counters, gauges, log-scale
    histograms and a span tracer, shared by the simulator, the stores,
    the detectors and the benchmark harness.

    Everything is a no-op until {!enable} is called: each mutating entry
    point checks {!is_enabled} before doing any work, so instrumented
    hot paths (store inserts, event dispatch) pay one boolean load when
    observability is off. Handle creation ({!counter}, {!gauge},
    {!histogram}) happens once at module initialisation and is exempt
    from the rule.

    Spans live on tracks identified by a Chrome-trace (pid, tid) pair:
    [wall_pid] carries wall-clock phases (harness experiments, runtime
    invocations, one tid), and each {!Mpi_sim.Runtime.run} allocates a
    fresh simulated-time pid via {!begin_sim_run} whose tids are MPI
    ranks and whose timestamps are simulated seconds. *)

val enable : unit -> unit
val disable : unit -> unit
val is_enabled : unit -> bool

val reset : unit -> unit
(** Zero every registered metric, drop all spans and restart the trace
    clock. Registered handles stay valid. *)

(** {1 Counters and gauges} *)

type counter = { c_name : string; c_help : string; mutable c_value : int }
type gauge = { g_name : string; g_help : string; mutable g_value : float }

val counter : ?help:string -> string -> counter
(** Find-or-register by name; call it once at module init and keep the
    handle. *)

val incr : counter -> unit
val add : counter -> int -> unit
val gauge : ?help:string -> string -> gauge
val set_gauge : gauge -> float -> unit

(** {1 Histograms} *)

val histogram : ?help:string -> ?unit_:string -> string -> Histogram.t
(** Find-or-register by name (same discipline as {!counter}). *)

val observe : Histogram.t -> float -> unit
val observe_int : Histogram.t -> int -> unit

(** {1 Spans} *)

type span = {
  sp_id : int;  (** Unique per process; 0 never occurs. *)
  sp_name : string;
  sp_cat : string;
  sp_pid : int;
  sp_tid : int;
  sp_t0 : float;  (** Seconds in the track's time domain. *)
  mutable sp_t1 : float;
  mutable sp_args : (string * string) list;
}

val wall_pid : int
(** Track of wall-clock phases; timestamps relative to the trace epoch. *)

val sim_pid : unit -> int
(** Track of the current simulated run; timestamps are simulated
    seconds. *)

val begin_sim_run : unit -> unit
(** Start a fresh simulated-time track so successive runs in one
    process do not overlay each other in the trace. *)

val rel_time : float -> float
(** Convert an absolute {!Rma_util.Timer.now} reading to trace-relative
    seconds. *)

val set_span_cap : int -> unit
(** Hard bound on stored spans (default 1_000_000); beyond it new spans
    are dropped. *)

val span_id : span option -> int
(** The span's unique id, or 0 for [None] (disabled or over the cap). *)

val start_span :
  ?cat:string -> ?args:(string * string) list -> pid:int -> tid:int -> ?at:float -> string ->
  span option
(** Open a span; [None] when disabled or over the cap.
    [at] gives an explicit domain timestamp (e.g. simulated time);
    without it the trace-relative wall clock is read. The span is only
    stored once {!finish_span} runs. *)

val finish_span : ?at:float -> ?args:(string * string) list -> span option -> unit

val emit_span :
  ?cat:string -> ?args:(string * string) list -> pid:int -> tid:int -> t0:float -> t1:float ->
  string -> unit
(** Record an already-measured span (e.g. a per-rank simulated-time
    interval reconstructed after a run). *)

val time_span :
  ?cat:string -> ?args:(string * string) list -> ?pid:int -> ?tid:int -> string ->
  (unit -> 'a) -> 'a * float
(** Run the thunk, return its result with elapsed wall seconds, and —
    when enabled — record the interval as a span. The duration is
    always measured so callers (e.g. {!Report.Harness.measure}) can use
    the {e same} number in tables and in the exported trace. Also feeds
    the span's category accumulator (see {!all_categories}). Re-raises
    the thunk's exception after recording the partial span. *)

(** {1 Snapshots for exporters} *)

val all_counters : unit -> counter list
val all_gauges : unit -> gauge list
val all_histograms : unit -> Histogram.t list

val all_spans : unit -> span list
(** Sorted by (pid, tid, start time). *)

val all_categories : unit -> (string * float) list
(** Categories seen by {!time_span} with their accumulated seconds. *)
