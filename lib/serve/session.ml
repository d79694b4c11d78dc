module Tool = Rma_analysis.Tool
module Codec = Rma_trace.Codec

type close_reason =
  | Completed
  | Shed
  | Protocol_error of string
  | Disconnected
  | Daemon_shutdown

let reason_label = function
  | Completed -> "completed"
  | Shed -> "shed"
  | Protocol_error _ -> "protocol_error"
  | Disconnected -> "disconnected"
  | Daemon_shutdown -> "daemon_shutdown"

type phase = Handshaking | Queued | Streaming | Closed of close_reason

type t = {
  id : int;
  fd : Unix.file_descr;
  mutable phase : phase;
  pending : Buffer.t;  (* bytes received but not yet terminated by '\n' *)
  inbox : string Queue.t;  (* complete lines not yet consumed by the state machine *)
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

(* A hello line is a few hundred bytes and a Codec event line stays
   under 1 KiB even with long escaped file names; 64 KiB is far above
   any legitimate line, yet bounds what a client that never sends '\n'
   can make the daemon hold. *)
let max_line_bytes = 65_536

(* Only the new chunk is scanned for newlines, so each byte is looked at
   once however the stream is split into reads. CRLF tolerated. *)
let push_bytes s chunk =
  let fits n = Buffer.length s.pending + n <= max_line_bytes in
  let rec go start =
    match String.index_from_opt chunk start '\n' with
    | Some stop when fits (stop - start) ->
        let line =
          if Buffer.length s.pending = 0 then String.sub chunk start (stop - start)
          else begin
            Buffer.add_substring s.pending chunk start (stop - start);
            let line = Buffer.contents s.pending in
            Buffer.clear s.pending;
            line
          end
        in
        let n = String.length line in
        let line = if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line in
        Queue.add line s.inbox;
        go (stop + 1)
    | Some _ -> false
    | None ->
        let rest = String.length chunk - start in
        let ok = fits rest in
        if ok then Buffer.add_substring s.pending chunk start rest;
        ok
  in
  go 0

let session_name s = match s.hello with Some h -> Some h.Protocol.session | None -> None
