(* The serve path's two sides: the daemon, run in a process of its own
   so that its collections never pause the client, and the closed-loop
   client that keeps one bulk and one small session in flight. *)

module Daemon = Rma_serve.Daemon
module Json = Rma_util.Json

let now_ns = Ledger.now_ns

(* ---- the daemon process ---- *)

(* Two streaming slots for the client's two connections. The queue only
   absorbs the instant between a summary and the daemon's close. *)
let daemon_config = { Daemon.addr = Daemon.Tcp 0; max_sessions = 2; accept_queue = 2 }

(* Body of [perfbench daemon]: announce the port on stdout, serve until
   SIGTERM, then print the counters the benchmark cross-checks. *)
let daemon_main () =
  let d = Daemon.create ~config:daemon_config () in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Daemon.request_stop d));
  Printf.printf "port %d\n%!" (Daemon.port d);
  Daemon.run d;
  let s = Daemon.stats d in
  Printf.printf "stats %d %d %d %d %d %d %d\n%!" s.Daemon.completed s.Daemon.events_ingested
    s.Daemon.races_streamed s.Daemon.shed s.Daemon.failed s.Daemon.disconnected
    (Rma_obs.Telemetry.peak_rss_bytes ())

type daemon = { pid : int; port : int; out : in_channel }

type daemon_stats = {
  completed : int;
  events_ingested : int;
  races_streamed : int;
  shed : int;
  failed : int;
  disconnected : int;
  peak_rss_bytes : int;
}

let live = ref []

let reap d =
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  close_in_noerr d.out;
  let rec wait () =
    match Unix.waitpid [] d.pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

let kill d = try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ()

(* Whatever happens to the benchmark, no daemon outlives it. *)
let () = at_exit (fun () -> List.iter (fun d -> kill d; reap d) !live)

(* Spawn [exe daemon] and block until it prints its port. *)
let start_daemon () =
  let r, w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe [| exe; "daemon" |] Unix.stdin w Unix.stderr in
  Unix.close w;
  let d = { pid; port = 0; out = Unix.in_channel_of_descr r } in
  live := d :: !live;
  match Scanf.sscanf (input_line d.out) "port %d" Fun.id with
  | port -> { d with port }
  | exception (End_of_file | Scanf.Scan_failure _ | Failure _) ->
      kill d;
      reap d;
      failwith "serve daemon did not announce its port"

let stop_daemon d =
  kill d;
  let stats =
    match input_line d.out with
    | line ->
        Scanf.sscanf_opt line "stats %d %d %d %d %d %d %d"
          (fun completed events_ingested races_streamed shed failed disconnected peak_rss_bytes ->
            { completed; events_ingested; races_streamed; shed; failed; disconnected; peak_rss_bytes })
    | exception End_of_file -> None
  in
  reap d;
  stats

(* ---- the closed-loop client ---- *)

type kind = Bulk | Small

(* What one session sends and the verdict it must get back. *)
type trace = {
  kind : kind;
  nprocs : int;
  bytes : string;  (** The Codec stream, header to footer. *)
  events : int;
  races : int;
  digest : string;
}

let hello tr =
  Json.to_string ~minify:true
    (Json.Obj
       [
         ("hello", Json.Int Rma_serve.Protocol.version);
         ("session", Json.String (match tr.kind with Bulk -> "bulk" | Small -> "small"));
         ("tool", Json.String "contribution");
         ("nprocs", Json.Int tr.nprocs);
         ("jobs", Json.Int 1);
         ("batch_inserts", Json.Bool false);
         ("predictive", Json.Bool false);
       ])
  ^ "\n"

(* One finished session. Times are monotonic nanoseconds: connect,
   [admitted] line read, last trace byte written, [summary] line read. *)
type sample = {
  s_kind : kind;
  ok : bool;
  why : string;  (** Failure reason; empty when [ok]. *)
  events : int;
  races : int;
  connect : int;
  admitted : int;
  footer : int;
  summary : int;
}

type conn = {
  tr : trace;
  fd : Unix.file_descr;
  t_connect : int;
  mutable t_admitted : int;
  mutable t_footer : int;
  mutable out : string;
  mutable off : int;
  mutable streaming : bool;
  mutable partial : string;
  mutable races_seen : int;
  mutable result : sample option;
}

let open_session ~port tr =
  let t_connect = now_ns () in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  Unix.set_nonblock fd;
  {
    tr;
    fd;
    t_connect;
    t_admitted = 0;
    t_footer = 0;
    out = hello tr;
    off = 0;
    streaming = false;
    partial = "";
    races_seen = 0;
    result = None;
  }

let finish c ?(events = 0) ?(races = 0) why =
  if c.result = None then
    c.result <-
      Some
        {
          s_kind = c.tr.kind;
          ok = why = "";
          why;
          events;
          races;
          connect = c.t_connect;
          admitted = c.t_admitted;
          footer = c.t_footer;
          summary = now_ns ();
        }

let field name conv j = Option.bind (Json.member name j) conv

let on_line c line =
  match Json.of_string line with
  | Error e -> finish c ("unparsable reply: " ^ e)
  | Ok j -> (
      match field "type" Json.to_str j with
      | Some "admitted" ->
          c.t_admitted <- now_ns ();
          c.out <- c.tr.bytes;
          c.off <- 0;
          c.streaming <- true
      | Some "queued" -> ()
      | Some "race" -> c.races_seen <- c.races_seen + 1
      | Some "summary" ->
          let events = Option.value (field "events" Json.to_int j) ~default:(-1) in
          let races = Option.value (field "races" Json.to_int j) ~default:(-1) in
          let digest = Option.value (field "digest" Json.to_str j) ~default:"" in
          let why =
            if events <> c.tr.events then Printf.sprintf "summary events %d, expected %d" events c.tr.events
            else if races <> c.tr.races || c.races_seen <> races then
              Printf.sprintf "summary races %d (%d race lines), expected %d" races c.races_seen c.tr.races
            else if digest <> c.tr.digest then Printf.sprintf "summary digest %s, expected %s" digest c.tr.digest
            else ""
          in
          finish c ~events ~races why
      | Some other -> finish c (Printf.sprintf "%s line: %s" other line)
      | None -> finish c ("reply without a type: " ^ line))

let write_some c =
  let len = String.length c.out in
  match Unix.single_write_substring c.fd c.out c.off (len - c.off) with
  | n ->
      c.off <- c.off + n;
      if c.off = len && c.streaming then c.t_footer <- now_ns ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (e, _, _) -> finish c ("write: " ^ Unix.error_message e)

let buf = Bytes.create 65536

let read_some c =
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | 0 -> finish c "connection closed before the summary"
  | n ->
      let lines = String.split_on_char '\n' (c.partial ^ Bytes.sub_string buf 0 n) in
      let rec go = function
        | [] -> ()
        | [ tail ] -> c.partial <- tail
        | line :: rest ->
            if c.result = None then on_line c line;
            go rest
      in
      go lines
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (e, _, _) -> finish c ("read: " ^ Unix.error_message e)

(* One serve slice, closed loop: connection A sends [bulk_sessions]
   bulk sessions back to back while connection B sends small sessions
   back to back, each opening its next session as soon as the previous
   summary arrives; B stops once A's last session has finished. Sessions
   still open after [timeout_s] fail. Returns the samples in completion
   order. *)
let closed_loop ~port ~bulk_sessions ?(timeout_s = 120.0) bulk small =
  let hard_stop = now_ns () + int_of_float (timeout_s *. 1e9) in
  let samples = ref [] in
  let bulk_left = ref (bulk_sessions - 1) in
  let conns = ref [ open_session ~port bulk; open_session ~port small ] in
  while !conns <> [] do
    if now_ns () > hard_stop then List.iter (fun c -> finish c "timed out") !conns
    else begin
      let rd = List.map (fun c -> c.fd) !conns in
      let wr = List.filter_map (fun c -> if c.off < String.length c.out then Some c.fd else None) !conns in
      match Unix.select rd wr [] 1.0 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | r, w, _ ->
          List.iter
            (fun c ->
              if c.result = None && List.mem c.fd w then write_some c;
              if c.result = None && List.mem c.fd r then read_some c)
            !conns
    end;
    let finished, running = List.partition (fun c -> c.result <> None) !conns in
    List.iter
      (fun c ->
        Unix.close c.fd;
        samples := Option.get c.result :: !samples)
      finished;
    let next_bulk =
      if List.exists (fun c -> c.tr.kind = Bulk) finished && !bulk_left > 0 then begin
        decr bulk_left;
        [ bulk ]
      end
      else []
    in
    let bulk_running = next_bulk <> [] || List.exists (fun c -> c.tr.kind = Bulk) running in
    let next_small =
      if bulk_running && List.exists (fun c -> c.tr.kind = Small) finished then [ small ] else []
    in
    conns := running @ List.map (open_session ~port) (next_bulk @ next_small)
  done;
  List.rev !samples
