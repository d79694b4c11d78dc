module Obs = Rma_obs.Obs
module Events = Rma_obs.Events
module Prometheus = Rma_obs.Prometheus
module Telemetry = Rma_obs.Telemetry
module Tool = Rma_analysis.Tool
module Toolbox = Rma_analysis.Toolbox
module Report = Rma_analysis.Report
module Codec = Rma_trace.Codec
module Ingest = Rma_trace.Ingest
module Race_export = Rma_report.Race_export
module Run_config = Rma_config.Run_config

type addr = Tcp of int | Unix_path of string

type config = { addr : addr; max_sessions : int; accept_queue : int }

let default_config = { addr = Tcp 0; max_sessions = 8; accept_queue = 16 }

type stats = {
  accepted : int;
  admitted : int;
  completed : int;
  shed : int;
  disconnected : int;
  failed : int;
  races_streamed : int;
  events_ingested : int;
  active : int;
  queued : int;
}

type t = {
  cfg : config;
  session_base : Run_config.t;  (* what a hello's omitted fields keep *)
  lsock : Unix.file_descr;
  bound : addr;
  daemon_run_id : string;
  mutable sessions : Session.t list;  (* accept order; loop thread only *)
  closed : string Queue.t;
      (* [session_labels] of the last [recent_closed] admitted sessions
         to close, oldest first; loop thread only *)
  mutable next_id : int;
  mutable rotate : int;
  rbuf : Bytes.t;  (* every session's reads land here; loop thread only *)
  stopping : bool Atomic.t;
  mutable dom : unit Domain.t option;
  c_accepted : int Atomic.t;
  c_admitted : int Atomic.t;
  c_completed : int Atomic.t;
  c_shed : int Atomic.t;
  c_disconnected : int Atomic.t;
  c_failed : int Atomic.t;
  c_races : int Atomic.t;
  c_events : int Atomic.t;
  g_active : int Atomic.t;
  g_queued : int Atomic.t;
}

let stats t =
  {
    accepted = Atomic.get t.c_accepted;
    admitted = Atomic.get t.c_admitted;
    completed = Atomic.get t.c_completed;
    shed = Atomic.get t.c_shed;
    disconnected = Atomic.get t.c_disconnected;
    failed = Atomic.get t.c_failed;
    races_streamed = Atomic.get t.c_races;
    events_ingested = Atomic.get t.c_events;
    active = Atomic.get t.g_active;
    queued = Atomic.get t.g_queued;
  }

let address t = t.bound
let port t = match t.bound with Tcp p -> p | Unix_path _ -> 0

let write_all fd s =
  let len = String.length s in
  let rec go off = if off < len then go (off + Unix.write_substring fd s off (len - off)) in
  go 0

let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl

(* Closing a socket with unread bytes in its receive buffer makes TCP
   reset the connection, which can discard a verdict line still in
   flight to the client — a shed or errored client would never see its
   answer. Flush our side with a half-close, then drain whatever input
   already arrived (non-blocking, so a slow client cannot stall the
   loop) before closing for real. *)
let graceful_close fd =
  (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  (try
     Unix.set_nonblock fd;
     let buf = Bytes.create 4096 in
     let rec drain () = if Unix.read fd buf 0 4096 > 0 then drain () in
     drain ()
   with Unix.Unix_error _ | Invalid_argument _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* --- HTTP on the daemon's port ---------------------------------------

   A connection whose first line starts with [GET ] is one HTTP request
   (a hello is JSON, so the two cannot be confused). The loop answers it
   from its own state at the empty line that ends the headers, then
   closes the connection: header bytes that reached a closed socket
   would make TCP reset it and lose the answer. The request gets no run
   id and no journal record. *)

let recent_closed = 64

let http_response ?(status = "200 OK") ~content_type body =
  Printf.sprintf
    "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    status content_type (String.length body) body

(* One Prometheus family of integer samples, each [(labels, value)]. *)
let family b name help kind samples =
  Printf.bprintf b "# HELP %s %s\n# TYPE %s %s\n" name help name kind;
  List.iter (fun (labels, v) -> Printf.bprintf b "%s%s %d\n" name labels v) samples

(* The labels of a session's [rma_session_info] series. *)
let session_labels (s : Session.t) state =
  let esc = Prometheus.escape_label_value in
  Printf.sprintf "{run_id=\"%s\",session=\"%s\",state=\"%s\"}" (esc s.Session.run_id)
    (esc (Option.value (Session.session_name s) ~default:""))
    (esc state)

(* Every series comes from a source that is exact whether or not Obs
   counts: the run id, the session table, the daemon's atomics. The Obs
   registry's families follow only while Obs is on, so none of them
   shows a zero that only means "not counting". *)
let metrics t =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Prometheus.to_text ~filter:(String.equal "run_info") ());
  let live =
    List.filter (fun (s : Session.t) -> s.Session.phase = Session.Streaming) t.sessions
    |> List.sort (fun (a : Session.t) b -> String.compare a.Session.run_id b.Session.run_id)
    |> List.map (fun s -> session_labels s "active")
  in
  (match live @ List.of_seq (Queue.to_seq t.closed) with
  | [] -> ()
  | labels ->
      family b "rma_session_info" "per-session run ids multiplexed in this process" "gauge"
        (List.map (fun l -> (l, 1)) labels));
  let one name help kind v = family b name help kind [ ("", Atomic.get v) ] in
  one "rma_serve_events_ingested" "Trace events ingested by the serve daemon" "counter" t.c_events;
  one "rma_serve_races_streamed" "Race verdicts streamed to serve clients" "counter" t.c_races;
  one "rma_serve_sessions_admitted" "Serve sessions admitted to streaming" "counter" t.c_admitted;
  one "rma_serve_sessions_completed" "Serve sessions completed (summary sent)" "counter"
    t.c_completed;
  one "rma_serve_sessions_shed" "Serve sessions refused by admission control" "counter" t.c_shed;
  one "rma_serve_active_sessions" "Serve sessions currently streaming" "gauge" t.g_active;
  if Obs.is_enabled () then begin
    Telemetry.sample ();
    Buffer.add_string b (Prometheus.to_text ~filter:(fun n -> not (String.equal n "run_info")) ())
  end;
  Buffer.contents b

(* [/events?run=<run id>] keeps one session's journal lines. No
   URL-decoding: run ids are made of [-a-z0-9] only. *)
let run_filter query =
  match
    List.find_opt (String.starts_with ~prefix:"run=") (String.split_on_char '&' query)
  with
  | None -> fun _ -> true
  | Some kv ->
      let run = String.sub kv 4 (String.length kv - 4) in
      fun (ev : Events.t) -> String.equal ev.Events.run_id run

(* The response to a request line ["GET <path>[?query] ..."]. *)
let http_answer t request =
  let target = match String.split_on_char ' ' request with _ :: p :: _ -> p | _ -> "/" in
  let path, query =
    match String.index_opt target '?' with
    | Some i -> (String.sub target 0 i, String.sub target (i + 1) (String.length target - i - 1))
    | None -> (target, "")
  in
  match path with
  | "/metrics" ->
      http_response ~content_type:"text/plain; version=0.0.4; charset=utf-8" (metrics t)
  | "/healthz" -> http_response ~content_type:"text/plain; charset=utf-8" "ok\n"
  | "/events" ->
      (* No Content-Length: the close ends the body. The ring holds
         records only while Obs is on and no journal sink is set. *)
      String.concat ""
        ("HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson; charset=utf-8\r\n\
          Connection: close\r\n\r\n"
        :: List.map
             (fun ev -> Events.line ev ^ "\n")
             (List.filter (run_filter query) (Events.recent ())))
  | _ ->
      http_response ~status:"404 Not Found" ~content_type:"text/plain; charset=utf-8"
        "not found\n"

let with_id id (r : Report.t) =
  { r with Report.provenance = { r.Report.provenance with Report.id = id } }

let rec close_session t (s : Session.t) reason =
  if Session.is_open s then begin
    let was_streaming = s.Session.phase = Session.Streaming in
    let was_queued = s.Session.phase = Session.Queued in
    s.Session.phase <- Session.Closed reason;
    if s.Session.run_id <> "" then begin
      Queue.push (session_labels s ("closed:" ^ Session.reason_label reason)) t.closed;
      if Queue.length t.closed > recent_closed then ignore (Queue.pop t.closed);
      Events.with_run_id s.Session.run_id (fun () ->
          Events.emit
            ~kv:
              [
                ("event", "session_closed");
                ("session", Option.value (Session.session_name s) ~default:"");
                ("reason", Session.reason_label reason);
                ("events", string_of_int s.Session.events_fed);
                ("races", string_of_int s.Session.races_streamed);
              ]
            Events.Info "serve")
    end;
    s.Session.tool <- None;
    Queue.clear s.Session.inbox;
    graceful_close s.Session.fd;
    t.sessions <- List.filter (fun x -> x != s) t.sessions;
    if was_streaming then Atomic.decr t.g_active;
    if was_queued then Atomic.decr t.g_queued;
    (match reason with
    | Session.Completed -> Atomic.incr t.c_completed
    | Session.Shed -> Atomic.incr t.c_shed
    | Session.Protocol_error _ -> Atomic.incr t.c_failed
    | Session.Disconnected -> Atomic.incr t.c_disconnected
    | Session.Answered | Session.Daemon_shutdown -> ());
    if was_streaming then promote_queued t
  end

and send t (s : Session.t) line =
  match write_all s.Session.fd (line ^ "\n") with
  | () -> true
  | exception Unix.Unix_error _ ->
      close_session t s Session.Disconnected;
      false

and admit t (s : Session.t) (h : Protocol.hello) =
  s.Session.run_id <- Printf.sprintf "%s-s%d" t.daemon_run_id s.Session.id;
  s.Session.tool <-
    Some
      (Rma_report.Harness.make_tool ~run:h.Protocol.run h.Protocol.tool ~nprocs:h.Protocol.nprocs
         ~config:Mpi_sim.Config.default);
  if s.Session.phase = Session.Queued then Atomic.decr t.g_queued;
  s.Session.phase <- Session.Streaming;
  Atomic.incr t.g_active;
  Atomic.incr t.c_admitted;
  Events.with_run_id s.Session.run_id (fun () ->
      Events.emit
        ~kv:
          [
            ("event", "session_admitted");
            ("session", h.Protocol.session);
            ("tool", Toolbox.slug h.Protocol.tool);
            ("nprocs", string_of_int h.Protocol.nprocs);
          ]
        Events.Info "serve");
  if send t s (Protocol.admitted ~session:h.Protocol.session ~run_id:s.Session.run_id) then
    drain t s

and promote_queued t =
  if (not (Atomic.get t.stopping)) && Atomic.get t.g_active < t.cfg.max_sessions then
    match List.find_opt (fun s -> s.Session.phase = Session.Queued) t.sessions with
    | Some ({ Session.hello = Some h; _ } as s) ->
        admit t s h;
        promote_queued t
    | _ -> ()

and on_hello t (s : Session.t) line =
  match s.Session.request with
  | Some request ->
      (* Header lines are dropped as they are read. *)
      if line = "" then begin
        (try write_all s.Session.fd (http_answer t request) with Unix.Unix_error _ -> ());
        close_session t s Session.Answered
      end
  | None when String.starts_with ~prefix:"GET " line -> s.Session.request <- Some line
  | None -> (
      match Protocol.parse_hello ~base:t.session_base line with
      | Error reason ->
          reject t s reason
      | Ok h ->
          s.Session.hello <- Some h;
          if Atomic.get t.g_active < t.cfg.max_sessions then admit t s h
          else if Atomic.get t.g_queued < t.cfg.accept_queue then begin
            s.Session.phase <- Session.Queued;
            Atomic.incr t.g_queued;
            ignore
              (send t s
                 (Protocol.queued ~session:h.Protocol.session ~position:(Atomic.get t.g_queued)))
          end
          else begin
            ignore
              (send t s
                 (Protocol.load_shed ~session:h.Protocol.session ~active:(Atomic.get t.g_active)
                    ~queued:(Atomic.get t.g_queued) ()));
            close_session t s Session.Shed
          end)

(* A session reads its races at each Epoch_closed and at the footer:
   points that depend only on the trace, never on how its bytes were
   split across reads. *)
and flush_races t (s : Session.t) tool =
  (* race_count is a cheap int; only rebuild the stored list when it
     moved (it also moves for reports dropped past the tool's cap, in
     which case the stored list is simply unchanged). *)
  let rc = tool.Tool.race_count () in
  if not (Int.equal rc s.Session.last_race_count) then begin
    s.Session.last_race_count <- rc;
    let stored = tool.Tool.races () in
    let n = List.length stored in
    if n > s.Session.races_streamed then begin
      let fresh = drop s.Session.races_streamed stored in
      List.iteri
        (fun i r ->
          if Session.is_open s then begin
            (* Stream order is final order (the stored list is
               chronological and append-only), so the 1-based stream
               index is exactly the id the offline export's
               renumbering would assign. *)
            let r = with_id (s.Session.races_streamed + i + 1) r in
            if send t s (Protocol.race r) then Atomic.incr t.c_races
          end)
        fresh;
      s.Session.races_streamed <- n
    end
  end

and finish_session t (s : Session.t) tool n_events =
  flush_races t s tool;
  if Session.is_open s then begin
    let reports = List.mapi (fun i r -> with_id (i + 1) r) (tool.Tool.races ()) in
    let digest = Race_export.verdict_digest reports in
    let degraded = (tool.Tool.bst_summary ()).Tool.degraded_drops_total in
    let session = Option.value (Session.session_name s) ~default:"" in
    Events.emit
      ~kv:
        [
          ("event", "session_summary");
          ("session", session);
          ("events", string_of_int n_events);
          ("races", string_of_int (List.length reports));
          ("digest", digest);
        ]
      Events.Info "serve";
    if
      send t s
        (Protocol.summary ~session ~events:n_events ~races:(List.length reports) ~digest
           ~degraded_drops:degraded)
    then close_session t s Session.Completed
  end

(* [Ingest.line] is the step [rma_race analyze] folds over a trace file,
   so a session's verdicts are the offline ones by construction. *)
and feed_line t (s : Session.t) line start stop =
  match s.Session.tool with
  | None -> reject t s "streaming without a tool"
  | Some tool -> (
      match Ingest.line tool s.Session.decoder line start stop with
      | Ok Codec.Incremental.Skip -> ()
      | Ok (Codec.Incremental.Event ev) -> (
          s.Session.events_fed <- s.Session.events_fed + 1;
          Atomic.incr t.c_events;
          match ev with Mpi_sim.Event.Epoch_closed _ -> flush_races t s tool | _ -> ())
      | Ok (Codec.Incremental.Complete n) -> finish_session t s tool n
      | Error reason -> reject t s reason)

and reject t (s : Session.t) reason =
  ignore (send t s (Protocol.error ?session:(Session.session_name s) reason));
  close_session t s (Session.Protocol_error reason)

and drain t (s : Session.t) =
  if not (Queue.is_empty s.Session.inbox) then
    match s.Session.phase with
    | Session.Queued | Session.Closed _ -> ()
    | Session.Handshaking ->
        on_hello t s (Queue.pop s.Session.inbox);
        drain t s
    | Session.Streaming ->
        (* One bracket for the whole run of buffered lines: the session's
           run id labels every journal record emitted inside, and a line
           that ends or rejects the session ends the run. *)
        Events.with_run_id s.Session.run_id (fun () ->
            while s.Session.phase = Session.Streaming && not (Queue.is_empty s.Session.inbox) do
              let line = Queue.pop s.Session.inbox in
              feed_line t s line 0 (String.length line)
            done);
        drain t s

let accept_new t =
  match Unix.accept t.lsock with
  | exception Unix.Unix_error _ -> ()
  | fd, _addr ->
      Atomic.incr t.c_accepted;
      if List.length t.sessions >= t.cfg.max_sessions + t.cfg.accept_queue then begin
        (* Accept-time load shed: even the bounded queue is full, so
           answer with a verdict the client can act on and close. *)
        let line =
          Protocol.load_shed ~active:(Atomic.get t.g_active) ~queued:(Atomic.get t.g_queued) ()
        in
        (try write_all fd (line ^ "\n") with Unix.Unix_error _ -> ());
        graceful_close fd;
        Atomic.incr t.c_shed
      end
      else begin
        let id = t.next_id in
        t.next_id <- id + 1;
        t.sessions <- t.sessions @ [ Session.create ~id ~fd ]
      end

let service t (s : Session.t) =
  match Unix.read s.Session.fd t.rbuf 0 (Bytes.length t.rbuf) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error _ -> close_session t s Session.Disconnected
  | 0 ->
      (* EOF before the footer (which closes the session itself): the
         client died mid-stream. *)
      close_session t s Session.Disconnected
  | n ->
      (* A streaming session's lines are decoded in [rbuf], under one
         run-id bracket per read, as [drain] brackets its inbox. *)
      let push () = Session.push_bytes s t.rbuf n (feed_line t s) in
      let fits =
        match s.Session.phase with
        | Session.Streaming -> Events.with_run_id s.Session.run_id push
        | _ -> push ()
      in
      (* Lines completed before the over-long one still count. *)
      drain t s;
      if (not fits) && Session.is_open s then reject t s "line too long"

(* Round-robin fairness: each select round services ready sessions
   starting from a rotating offset, and each service consumes at most
   one 8 KiB read — so a firehose session cannot starve the others. *)
let rotate_list n l =
  match l with
  | [] -> []
  | _ ->
      let k = n mod List.length l in
      let rec split i acc rest =
        if i = 0 then rest @ List.rev acc
        else match rest with [] -> List.rev acc | x :: tl -> split (i - 1) (x :: acc) tl
      in
      split k [] l

let step t =
  let watched = List.filter Session.wants_read t.sessions in
  let read_fds = t.lsock :: List.map (fun s -> s.Session.fd) watched in
  match Unix.select read_fds [] [] 0.25 with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | ready, _, _ ->
      if List.mem t.lsock ready then accept_new t;
      let in_order = rotate_list t.rotate watched in
      t.rotate <- t.rotate + 1;
      List.iter
        (fun s -> if Session.is_open s && List.mem s.Session.fd ready then service t s)
        in_order

let create ?(config = default_config) ?(run = Run_config.default) () =
  (* Writes to a crashed client must surface as EPIPE, not kill the
     daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let lsock, bound =
    match config.addr with
    | Tcp requested ->
        let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        (try
           Unix.setsockopt s Unix.SO_REUSEADDR true;
           Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, requested));
           Unix.listen s 64
         with e ->
           (try Unix.close s with Unix.Unix_error _ -> ());
           raise e);
        let p =
          match Unix.getsockname s with Unix.ADDR_INET (_, p) -> p | _ -> requested
        in
        (* Scripts read the resolved port from one stable stderr line. *)
        if requested = 0 then Printf.eprintf "serve-port: %d\n%!" p;
        (s, Tcp p)
    | Unix_path path ->
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (try
           Unix.bind s (Unix.ADDR_UNIX path);
           Unix.listen s 64
         with e ->
           (try Unix.close s with Unix.Unix_error _ -> ());
           raise e);
        (s, Unix_path path)
  in
  let t =
    {
      cfg = config;
      session_base = run;
      lsock;
      bound;
      daemon_run_id = Events.run_id ();
      sessions = [];
      closed = Queue.create ();
      next_id = 1;
      rotate = 0;
      rbuf = Bytes.create 8192;
      stopping = Atomic.make false;
      dom = None;
      c_accepted = Atomic.make 0;
      c_admitted = Atomic.make 0;
      c_completed = Atomic.make 0;
      c_shed = Atomic.make 0;
      c_disconnected = Atomic.make 0;
      c_failed = Atomic.make 0;
      c_races = Atomic.make 0;
      c_events = Atomic.make 0;
      g_active = Atomic.make 0;
      g_queued = Atomic.make 0;
    }
  in
  Events.emit
    ~kv:
      [
        ("event", "serve_start");
        ( "addr",
          match bound with
          | Tcp p -> Printf.sprintf "tcp:127.0.0.1:%d" p
          | Unix_path p -> "unix:" ^ p );
        ("max_sessions", string_of_int config.max_sessions);
        ("accept_queue", string_of_int config.accept_queue);
      ]
    Events.Info "serve";
  t

let run t =
  while not (Atomic.get t.stopping) do
    step t
  done;
  List.iter (fun s -> close_session t s Session.Daemon_shutdown) t.sessions;
  (try Unix.close t.lsock with Unix.Unix_error _ -> ());
  (match t.bound with
  | Unix_path p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
  | Tcp _ -> ());
  Events.emit ~kv:[ ("event", "serve_stop") ] Events.Info "serve"

let request_stop t = Atomic.set t.stopping true

let start t = t.dom <- Some (Domain.spawn (fun () -> run t))

let stop t =
  request_stop t;
  match t.dom with
  | Some d ->
      Domain.join d;
      t.dom <- None
  | None -> ()
