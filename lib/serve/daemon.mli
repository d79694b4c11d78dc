(** The always-on analysis daemon behind [rma_race serve].

    One single-threaded select loop multiplexes every client session —
    accepting connections, reading each socket in bounded 8 KiB slices
    serviced round-robin from a rotating offset (fairness), decoding
    Codec streams incrementally, driving each session's detector, and
    streaming {!Protocol} verdict lines back. Single-threadedness is
    load-bearing: the detectors and the {!Rma_obs.Obs} registry are
    caller-thread disciplines, and one loop thread satisfies them for
    every session at once.

    {b Isolation.} Each admitted session builds its own run
    configuration from its hello and gets its own detector tool
    (stores and budget of its own) and its own run_id
    (["<daemon>-s<n>"], labelling journal records and the session's
    [rma_session_info] series), so interleaving sessions cannot perturb
    each other (DESIGN.md §20). Verdicts are
    byte-identical to the offline [analyze] path by construction — the
    same tool, fed the same events in the same order, with races
    renumbered to stream order exactly as the offline export renumbers.

    {b Admission.} At most [max_sessions] sessions stream at once;
    handshaken sessions beyond that wait in a bounded accept queue of
    [accept_queue] (their sockets deliberately unread, so the kernel
    buffer back-pressures the client); anything beyond both bounds is
    answered with a [load_shed] line and closed — at accept time when
    the connection count alone proves overload, otherwise after the
    handshake.

    {b Churn.} A session may disconnect at any point, including
    mid-epoch; its tool and socket are released and a queued session
    is promoted. Nothing session-scoped survives the close — a
    [/metrics] scrape with no [state="active"] series is the leak-check
    surface the churn test pins.

    {b HTTP.} A connection whose first line starts with [GET ] is one
    HTTP request, answered by the loop thread and then closed:
    [/metrics] (Prometheus text: [rma_run_info]; one
    [rma_session_info{run_id,session,state}] series per streaming
    session, sorted by run id, then the last 64 closures oldest first;
    the [rma_serve_*] series from {!stats}; and, while {!Rma_obs.Obs}
    is enabled, the registry's families with the telemetry gauges
    refreshed), [/healthz] ([ok]), [/events] (the journal ring as
    NDJSON, body ended by the close; [?run=<run_id>] keeps one
    session's records) and 404 for anything else. A request is not a
    session: it gets no run id and no journal record, and counts in
    [accepted] only. *)

type addr =
  | Tcp of int  (** Loopback TCP; [0] binds an ephemeral port. *)
  | Unix_path of string  (** Unix-domain socket path (unlinked first). *)

type config = {
  addr : addr;
  max_sessions : int;  (** Concurrent streaming sessions (default 8). *)
  accept_queue : int;  (** Handshaken sessions allowed to wait (default 16). *)
}

val default_config : config
(** Ephemeral loopback TCP, 8 streaming slots, queue of 16. *)

type t

val create : ?config:config -> ?run:Rma_config.Run_config.t -> unit -> t
(** Bind and listen (raising [Unix.Unix_error] if the address is
    taken), ignore SIGPIPE, and journal a [serve_start] record. [run]
    (default {!Rma_config.Run_config.default}) supplies the
    predictive mode and budget of sessions whose hello omits them. An
    ephemeral TCP request prints [serve-port: <port>] on stderr — the
    line scripted callers scrape. The loop
    does not run yet: call {!run} (blocking) or {!start}. *)

val run : t -> unit
(** The select loop, on the calling thread. Returns after
    {!request_stop}: every open session is closed with reason
    [daemon_shutdown], the listener is closed (and a Unix-domain path
    unlinked), and a [serve_stop] record is journaled. *)

val request_stop : t -> unit
(** Ask the loop to exit after its current round (≤ 0.25 s away).
    Async-signal-safe — the CLI installs it as the SIGINT/SIGTERM
    handler. *)

val start : t -> unit
(** Run the loop on a background domain (tests and the bench soak).
    While it runs, the loop thread owns the process-global obs/par
    caller-thread state — do not run analyses from other threads until
    {!stop} returns. *)

val stop : t -> unit
(** {!request_stop} then join the {!start} domain, if any. *)

val port : t -> int
(** Resolved TCP port (0 for a Unix-domain daemon). *)

val address : t -> addr
(** The bound address with any ephemeral port resolved. *)

type stats = {
  accepted : int;
      (** Connections accepted, including later-shed ones and HTTP
          requests. *)
  admitted : int;  (** Sessions that reached streaming. *)
  completed : int;  (** Sessions that received their summary. *)
  shed : int;  (** Connections refused by admission control. *)
  disconnected : int;  (** Clients that vanished mid-session. *)
  failed : int;  (** Protocol errors (bad handshake, undecodable line). *)
  races_streamed : int;
  events_ingested : int;
  active : int;  (** Currently streaming. *)
  queued : int;  (** Currently waiting for a slot. *)
}

val stats : t -> stats
(** Live counters, readable from any thread (atomics). The same
    numbers feed the [rma_serve_*] series on [/metrics]. *)
