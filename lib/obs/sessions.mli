(** Registry of logical runs multiplexed inside one process.

    Historically one process was one run: {!Events.run_id} named it and
    [/metrics] exposed it as the single [rma_run_info] series. The
    [serve] daemon breaks that assumption — every client session is its
    own run with its own run_id threaded through the journal. Session
    owners register here, and {!Prometheus.to_text} renders one
    [rma_session_info{run_id,session,state}] series per entry, so the
    [--obs-serve] endpoint and the daemon coexist instead of the last
    writer clobbering the label.

    Thread-safe (one internal mutex): the daemon registers from the
    main thread while the telemetry endpoint snapshots from its serving
    domain. *)

(** Lifecycle of a registered run. [Closed reason] keeps the entry
    visible in a bounded recent-closures window (the reason is rendered
    into the state label, e.g. ["closed:completed"]). *)
type state = Queued | Active | Closed of string

val register : run_id:string -> session:string -> state:state -> unit
(** Add (or replace) the entry for [run_id]. [session] is the
    client-chosen session name. *)

val set_state : run_id:string -> state -> unit
(** Update an entry's state. Transitioning to [Closed] moves it from
    the live table into the bounded recent-closures window (capacity
    64, oldest evicted). Unknown run ids are ignored. *)

val registered_count : unit -> int
(** Live (non-closed) entries — the leak-check number: zero once every
    session has drained. *)

val snapshot : unit -> (string * string * string) list
(** Every visible entry as [(run_id, session, state)], the state
    rendered ["queued"], ["active"] or ["closed:<reason>"]: live ones
    sorted by run_id, then recent closures oldest-first. *)

val reset : unit -> unit
(** Drop everything (tests). *)
