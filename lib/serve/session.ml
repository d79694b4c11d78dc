module Tool = Rma_analysis.Tool
module Codec = Rma_trace.Codec

type close_reason =
  | Completed
  | Shed
  | Protocol_error of string
  | Disconnected
  | Answered
  | Daemon_shutdown

let reason_label = function
  | Completed -> "completed"
  | Shed -> "shed"
  | Protocol_error _ -> "protocol_error"
  | Disconnected -> "disconnected"
  | Answered -> "answered"
  | Daemon_shutdown -> "daemon_shutdown"

type phase = Handshaking | Queued | Streaming | Closed of close_reason

type t = {
  id : int;
  fd : Unix.file_descr;
  mutable phase : phase;
  pending : Buffer.t;  (* bytes received but not yet terminated by '\n' *)
  inbox : string Queue.t;  (* complete lines not yet consumed by the state machine *)
  mutable request : string option;  (* an HTTP request line awaiting the end of its headers *)
  mutable hello : Protocol.hello option;
  mutable run_id : string;
  mutable tool : Tool.t option;
  decoder : Codec.Incremental.t;
  mutable races_streamed : int;
  mutable last_race_count : int;
  mutable events_fed : int;
}

let create ~id ~fd =
  {
    id;
    fd;
    phase = Handshaking;
    pending = Buffer.create 256;
    inbox = Queue.create ();
    request = None;
    hello = None;
    run_id = "";
    tool = None;
    decoder = Codec.Incremental.create ();
    races_streamed = 0;
    last_race_count = 0;
    events_fed = 0;
  }

let is_open s = match s.phase with Closed _ -> false | _ -> true
let wants_read s = match s.phase with Handshaking | Streaming -> true | _ -> false

let push_bytes s chunk len feed =
  Rma_util.Lines.split_lines s.pending chunk len (fun line start stop ->
      match s.phase with
      | Streaming -> feed line start stop
      | Handshaking | Queued -> Queue.add (String.sub line start (stop - start)) s.inbox
      | Closed _ -> ())

let session_name s = match s.hello with Some h -> Some h.Protocol.session | None -> None
