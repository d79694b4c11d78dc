(** One client connection's lifecycle state.

    The daemon owns every transition; this module just names the state
    machine and keeps the per-session mutable record — socket, receive
    buffer, handshake, detector tool and incremental decoder.

    {v
      Handshaking ──hello, slot free──────────────▶ Streaming
          │   │                                        │
          │   └──hello, slots busy──▶ Queued ──slot──▶ │
          │            │                │              │
          │            │           (queue full)        │
          ▼            ▼                ▼              ▼
        Closed of Protocol_error | Shed | Disconnected | Completed
                                 | Answered | Daemon_shutdown
    v} *)

(** Why a session ended: [Completed] (footer seen, summary sent),
    [Shed] (admission refused), [Protocol_error] (bad handshake or
    undecodable trace line, reason attached), [Disconnected] (client
    vanished mid-stream), [Answered] (the first line was an HTTP [GET],
    answered at the end of its headers), [Daemon_shutdown] (daemon stopped first). *)
type close_reason =
  | Completed
  | Shed
  | Protocol_error of string
  | Disconnected
  | Answered
  | Daemon_shutdown

val reason_label : close_reason -> string
(** Stable lowercase label used in journal events, [/metrics] session
    states and daemon stats. *)

type phase = Handshaking | Queued | Streaming | Closed of close_reason

type t = {
  id : int;  (** Daemon-local ordinal, minted at accept. *)
  fd : Unix.file_descr;
  mutable phase : phase;
  pending : Buffer.t;
      (** Received bytes not yet newline-terminated; never more than
          {!Rma_util.Lines.max_line_bytes}. *)
  inbox : string Queue.t;
      (** Complete lines the state machine has not consumed yet — a
          client that pipelines its handshake and trace in one write
          can land lines while the session is still [Queued]; they wait
          here until admission. *)
  mutable request : string option;
      (** The [GET] line of an HTTP request, held until the empty line
          that ends its headers; the header lines are dropped. *)
  mutable hello : Protocol.hello option;
  mutable run_id : string;  (** ["<daemon run id>-s<id>"] once admitted. *)
  mutable tool : Rma_analysis.Tool.t option;
      (** Built at admission from the hello's run configuration; owns
          the session's stores, so nothing about them is shared with
          another session. *)
  decoder : Rma_trace.Codec.Incremental.t;
  mutable races_streamed : int;
  mutable last_race_count : int;
  mutable events_fed : int;
}

val create : id:int -> fd:Unix.file_descr -> t
(** Fresh session in [Handshaking]. *)

val is_open : t -> bool

val wants_read : t -> bool
(** Whether the daemon's select loop should watch this fd: true in
    [Handshaking] and [Streaming]. A [Queued] session is deliberately
    {e not} read — the kernel socket buffer back-pressures the client
    until a streaming slot frees. *)

val push_bytes : t -> bytes -> int -> (string -> int -> int -> unit) -> bool
(** [push_bytes s buf len feed] splits the first [len] bytes of [buf], a
    received chunk, through {!Rma_util.Lines.split_lines} (without line
    terminators; CRLF tolerated), the unterminated tail staying in
    [pending]. A streaming session passes each line to [feed] as the
    splitter's slice, a view of [buf]; one still [Handshaking] or
    [Queued] copies it into [inbox]; a closed one drops it. Returns
    [false] once a line grows past {!Rma_util.Lines.max_line_bytes}; the
    daemon then closes the session with [Protocol_error "line too long"]. *)

val session_name : t -> string option
(** The handshake's session name, once known. *)
