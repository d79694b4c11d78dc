(* The serve daemon: wire protocol round-trips, admission control
   (queue then shed), per-session isolation under interleaved streams,
   and the churn soak — seeded clients that connect, abort or complete
   while the test pins byte-identical verdicts against the offline
   replay path and zero leaked sessions; and the HTTP routes (/metrics,
   /healthz, /events) on the daemon's port. *)

module Daemon = Rma_serve.Daemon
module Protocol = Rma_serve.Protocol
module Session = Rma_serve.Session
module Codec = Rma_trace.Codec
module Recorder = Rma_trace.Recorder
module Ingest = Rma_trace.Ingest
module Kernel = Rma_microbench.Scenario.Kernel
module Json = Rma_util.Json
module Toolbox = Rma_analysis.Toolbox
module Tool = Rma_analysis.Tool
module Report = Rma_analysis.Report
module Race_export = Rma_report.Race_export

(* --- trace material ------------------------------------------------- *)

let record_kernel name =
  let k = Option.get (Kernel.find name) in
  let r = Recorder.create () in
  let config = { Mpi_sim.Config.default with Mpi_sim.Config.analysis_overhead_scale = 0.0 } in
  ignore
    (Mpi_sim.Runtime.run ~nprocs:k.Kernel.k_nprocs ~seed:42 ~config
       ~observer:(Recorder.observer r) k.Kernel.k_program);
  (* Round-trip through the codec: both the daemon and the offline
     [analyze] path see decoded events, whose timestamps carry the
     codec's precision, not the recorder's. *)
  let events =
    List.map
      (fun e -> Result.get_ok (Test_trace.decode_line (Codec.encode_event e)))
      (Recorder.events r)
  in
  (k.Kernel.k_nprocs, events)

let trace_lines events =
  (Codec.header :: List.map Codec.encode_event events) @ [ Codec.footer (List.length events) ]

let racy_kernel = "rrb_lockall_remote_conflict_put_put_race"
let clean_kernel = "rrb_lockall_remote_disjoint_put_put_safe"

let with_id id (r : Report.t) =
  { r with Report.provenance = { r.Report.provenance with Report.id = id } }

(* The offline reference the daemon must match byte-for-byte: replay
   through the same tool construction, renumber to stream order, render
   with the same protocol constructor. *)
let offline ?budget ~nprocs events =
  let tool = Toolbox.make Toolbox.Contribution ~nprocs ?budget () in
  let reports = List.mapi (fun i r -> with_id (i + 1) r) (Recorder.replay events ~tool) in
  (List.map Protocol.race reports, Race_export.verdict_digest reports)

(* --- a minimal blocking client -------------------------------------- *)

(* A daemon that dies mid-session leaves its sockets open: the receive
   timeout turns that into a failed test instead of a hung one. *)
let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
  fd

let write_all fd s =
  let rec go off =
    if off < String.length s then go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

let send_lines fd lines = write_all fd (String.concat "\n" lines ^ "\n")

let recv_line fd =
  let b = Buffer.create 64 in
  let byte = Bytes.create 1 in
  let rec go () =
    match Unix.read fd byte 0 1 with
    | 0 -> if Buffer.length b = 0 then None else Some (Buffer.contents b)
    | _ -> if Bytes.get byte 0 = '\n' then Some (Buffer.contents b) else (Buffer.add_bytes b byte; go ())
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        if Buffer.length b = 0 then None else Some (Buffer.contents b)
  in
  go ()

let recv_all fd =
  let rec go acc = match recv_line fd with None -> List.rev acc | Some l -> go (l :: acc) in
  go []

let line_type line =
  match Json.of_string line with
  | Ok j -> Option.value ~default:"?" (Option.bind (Json.member "type" j) Json.to_str)
  | Error _ -> "?"

let str_field name line =
  match Json.of_string line with
  | Ok j -> Option.bind (Json.member name j) Json.to_str
  | Error _ -> None

let int_field name line =
  match Json.of_string line with
  | Ok j -> Option.bind (Json.member name j) Json.to_int
  | Error _ -> None

let hello ?tool ?budget ?fault ~session ~nprocs () =
  let opt name f = function None -> [] | Some v -> [ (name, f v) ] in
  Json.to_string ~minify:true
    (Json.Obj
       ([ ("hello", Json.Int Protocol.version); ("session", Json.String session);
          ("nprocs", Json.Int nprocs) ]
       @ opt "tool" (fun s -> Json.String s) tool
       @ opt "budget" (fun s -> Json.String s) budget
       @ opt "fault" (fun s -> Json.String s) fault))

(* Run one complete session against a live daemon and return the server
   lines after the admission verdict. *)
let run_session ?tool ?budget ?fault ~port ~session ~nprocs lines =
  let fd = connect port in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) @@ fun () ->
  send_lines fd (hello ?tool ?budget ?fault ~session ~nprocs () :: lines);
  (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  recv_all fd

(* The same with a ready-made hello line, keeping the admission line. *)
let run_session_raw ~port hello_line lines =
  let fd = connect port in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) @@ fun () ->
  send_lines fd (hello_line :: lines);
  (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  recv_all fd

(* Wait (bounded) for an asynchronous daemon-side transition, e.g. the
   loop noticing an aborted client's EOF. *)
let await ?(deadline = 5.0) what cond =
  let rec go left =
    if cond () then ()
    else if left <= 0.0 then Alcotest.failf "timed out waiting for %s" what
    else (
      Unix.sleepf 0.02;
      go (left -. 0.02))
  in
  go deadline

let with_daemon ?(max_sessions = 4) ?(accept_queue = 8) f =
  let d =
    Daemon.create ~config:{ Daemon.addr = Daemon.Tcp 0; max_sessions; accept_queue } ()
  in
  Daemon.start d;
  Fun.protect ~finally:(fun () -> Daemon.stop d) (fun () -> f d (Daemon.port d));
  Daemon.stats d

(* One HTTP request on the daemon's port: the whole response, read up
   to the daemon's close. *)
let http_get port path =
  let fd = connect port in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) @@ fun () ->
  write_all fd (Printf.sprintf "GET %s HTTP/1.1\r\nHost: localhost\r\n\r\n" path);
  let buf = Buffer.create 1024 and chunk = Bytes.create 1024 in
  let rec drain () =
    match Unix.read fd chunk 0 1024 with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        drain ()
  in
  drain ();
  Buffer.contents buf

let contains affix s = Astring.String.is_infix ~affix s

(* The leak check: a scrape shows no session still streaming. *)
let check_no_active port =
  Alcotest.(check bool) "no sessions leaked" false
    (contains "state=\"active\"" (http_get port "/metrics"))

(* --- tests ----------------------------------------------------------- *)

let test_byte_identical_verdicts () =
  let nprocs, events = record_kernel racy_kernel in
  let expected_races, expected_digest = offline ~nprocs events in
  let stats =
    with_daemon @@ fun _d port ->
    let lines = run_session ~port ~session:"racy" ~nprocs (trace_lines events) in
    (match lines with
    | admitted :: rest ->
        Alcotest.(check string) "admitted first" "admitted" (line_type admitted);
        let races, tail = List.partition (fun l -> line_type l = "race") rest in
        Alcotest.(check (list string)) "streamed race lines byte-equal offline" expected_races races;
        (match tail with
        | [ summary ] ->
            Alcotest.(check string) "summary last" "summary" (line_type summary);
            Alcotest.(check (option string)) "digest matches offline replay"
              (Some expected_digest) (str_field "digest" summary);
            Alcotest.(check (option int)) "event count" (Some (List.length events))
              (int_field "events" summary);
            Alcotest.(check (option int)) "race count" (Some (List.length expected_races))
              (int_field "races" summary)
        | other -> Alcotest.failf "expected one summary line, got %d" (List.length other))
    | [] -> Alcotest.fail "no server lines");
    check_no_active port
  in
  Alcotest.(check int) "one admitted" 1 stats.Daemon.admitted;
  Alcotest.(check int) "one completed" 1 stats.Daemon.completed

let test_format1_and_errors () =
  let nprocs, events = record_kernel clean_kernel in
  let stats =
    with_daemon @@ fun _d port ->
    (* An unframed format-1 stream is refused at its header, and the
       error says which format is unsupported. *)
    let format1 = "rma-trace 1" :: List.map Codec.encode_event events in
    let lines = run_session ~port ~session:"format1" ~nprocs format1 in
    (match List.filter (fun l -> line_type l = "error") lines with
    | [ l ] ->
        let reason = Option.value ~default:"" (str_field "reason" l) in
        Alcotest.(check bool)
          (Printf.sprintf "reason %S names format 1 as unsupported" reason)
          true
          (Astring.String.is_infix ~affix:"bad header" reason
          && Astring.String.is_infix ~affix:"format \"1\" is unsupported" reason)
    | other -> Alcotest.failf "expected one error line, got %d" (List.length other));
    Alcotest.(check bool) "no summary for a format-1 stream" false
      (List.exists (fun l -> line_type l = "summary") lines);
    (* A non-JSON handshake is answered with an error line and a close. *)
    let fd = connect port in
    send_lines fd [ "this is not a handshake" ];
    (match recv_all fd with
    | l :: _ -> Alcotest.(check string) "error line" "error" (line_type l)
    | [] -> Alcotest.fail "no error line");
    Unix.close fd;
    (* An undecodable trace line after a fine handshake, likewise. *)
    let fd = connect port in
    send_lines fd [ hello ~session:"bad-trace" ~nprocs (); Codec.header; "G\tnot\tan\tevent" ];
    let lines = recv_all fd in
    Alcotest.(check bool) "error after bad event" true
      (List.exists (fun l -> line_type l = "error") lines);
    Unix.close fd;
    check_no_active port
  in
  Alcotest.(check int) "nothing completed" 0 stats.Daemon.completed;
  Alcotest.(check int) "three protocol failures" 3 stats.Daemon.failed

(* A client that never sends a newline cannot grow the daemon's line
   buffer past [Rma_util.Lines.max_line_bytes]: the session is closed as
   a protocol error while a well-behaved session beside it completes. *)
let test_unterminated_line_is_bounded () =
  let cap = Rma_util.Lines.max_line_bytes in
  let push s c =
    Session.push_bytes s (Bytes.of_string c) (String.length c) (fun _ _ _ ->
        Alcotest.fail "a handshaking session fed a line")
  in
  (* The buffer itself, driven directly. Lines split across chunks
     reassemble, CRLF included... *)
  let s = Session.create ~id:0 ~fd:Unix.stdin in
  List.iter (fun c -> ignore (push s c)) [ "ab"; "c\r\nde\n"; "f" ];
  Alcotest.(check (list string)) "lines reassembled" [ "abc"; "de" ]
    (List.of_seq (Queue.to_seq s.Session.inbox));
  Alcotest.(check string) "tail kept" "f" (Buffer.contents s.Session.pending);
  (* ...and an unterminated line is reported once it passes the cap,
     without the buffer growing past it. [overflowed] is [true] once a
     push reports it, and gives up one chunk past the cap. *)
  let chunk = String.make 8192 'x' in
  let rec overflowed sent =
    sent <= cap + 8192 && ((not (push s chunk)) || overflowed (sent + 8192))
  in
  Alcotest.(check bool) "over-long line reported" true (overflowed 0);
  Alcotest.(check bool) "buffer stays within the cap" true
    (Buffer.length s.Session.pending <= cap);
  let nprocs, events = record_kernel racy_kernel in
  let _, expected_digest = offline ~nprocs events in
  let stats =
    with_daemon @@ fun _d port ->
    let good = connect port in
    send_lines good [ hello ~session:"good" ~nprocs () ];
    Alcotest.(check (option string)) "good admitted" (Some "admitted")
      (Option.map line_type (recv_line good));
    let hostile = connect port in
    (* A daemon that kept buffering would never answer: fail, not hang. *)
    Unix.setsockopt_float hostile Unix.SO_RCVTIMEO 10.0;
    let trace = trace_lines events in
    let half = List.length trace / 2 in
    (* One byte past the cap, in two halves with the good session's
       trace streamed in between. *)
    write_all hostile (String.make (cap / 2) 'x');
    send_lines good (List.filteri (fun i _ -> i < half) trace);
    write_all hostile (String.make (cap - (cap / 2) + 1) 'x');
    send_lines good (List.filteri (fun i _ -> i >= half) trace);
    (match recv_all hostile with
    | [ l ] ->
        Alcotest.(check string) "hostile gets an error line" "error" (line_type l);
        Alcotest.(check (option string)) "reason" (Some "line too long") (str_field "reason" l)
    | other -> Alcotest.failf "expected one error line, got %d" (List.length other));
    Unix.close hostile;
    (try Unix.shutdown good Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
    let lines = recv_all good in
    Unix.close good;
    Alcotest.(check (option string)) "good session digest" (Some expected_digest)
      (str_field "digest" (List.nth lines (List.length lines - 1)));
    check_no_active port
  in
  Alcotest.(check int) "good session completed" 1 stats.Daemon.completed;
  Alcotest.(check int) "hostile session failed" 1 stats.Daemon.failed

(* Handshake fields the daemon no longer knows — here the removed
   "batch_inserts" knob — are ignored: the session is admitted and its
   digest is the offline analyze digest. *)
let test_unknown_hello_field_ignored () =
  let nprocs, events = record_kernel racy_kernel in
  let _, expected_digest = offline ~nprocs events in
  let _ =
    with_daemon @@ fun _d port ->
    let hello_line =
      Json.to_string ~minify:true
        (Json.Obj
           [ ("hello", Json.Int Protocol.version); ("session", Json.String "old-client");
             ("nprocs", Json.Int nprocs); ("batch_inserts", Json.Bool true) ])
    in
    let fd = connect port in
    send_lines fd (hello_line :: trace_lines events);
    (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
    let lines = recv_all fd in
    Unix.close fd;
    Alcotest.(check (option string)) "admitted" (Some "admitted")
      (Option.map line_type (List.nth_opt lines 0));
    Alcotest.(check (option string)) "digest matches offline analyze" (Some expected_digest)
      (str_field "digest" (List.nth lines (List.length lines - 1)))
  in
  ()

let test_admission_queue_and_shed () =
  let nprocs, events = record_kernel racy_kernel in
  let lines = trace_lines events in
  let stats =
    with_daemon ~max_sessions:1 ~accept_queue:1 @@ fun _d port ->
    (* A fills the only streaming slot... *)
    let a = connect port in
    send_lines a [ hello ~session:"a" ~nprocs () ];
    Alcotest.(check (option string)) "a admitted" (Some "admitted")
      (Option.map line_type (recv_line a));
    (* ...B waits in the accept queue... *)
    let b = connect port in
    send_lines b [ hello ~session:"b" ~nprocs () ];
    let b_first = Option.get (recv_line b) in
    Alcotest.(check string) "b queued" "queued" (line_type b_first);
    Alcotest.(check (option int)) "b at position 1" (Some 1) (int_field "position" b_first);
    (* ...and C is shed. *)
    let c = connect port in
    send_lines c [ hello ~session:"c" ~nprocs () ];
    let c_lines = recv_all c in
    Alcotest.(check bool) "c shed" true
      (List.exists (fun l -> line_type l = "load_shed") c_lines);
    Unix.close c;
    (* A finishes; B is promoted into the freed slot and completes too. *)
    send_lines a lines;
    (try Unix.shutdown a Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
    let a_rest = recv_all a in
    Alcotest.(check string) "a summary"
      "summary" (line_type (List.nth a_rest (List.length a_rest - 1)));
    Unix.close a;
    Alcotest.(check (option string)) "b admitted after a" (Some "admitted")
      (Option.map line_type (recv_line b));
    send_lines b lines;
    (try Unix.shutdown b Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
    let b_rest = recv_all b in
    Alcotest.(check string) "b summary"
      "summary" (line_type (List.nth b_rest (List.length b_rest - 1)));
    Unix.close b;
    check_no_active port
  in
  Alcotest.(check int) "two admitted" 2 stats.Daemon.admitted;
  Alcotest.(check int) "two completed" 2 stats.Daemon.completed;
  Alcotest.(check int) "one shed" 1 stats.Daemon.shed

(* One line to [a], one line to [b], until both streams are done. *)
let rec send_interleaved a b xs ys =
  (match xs with x :: _ -> send_lines a [ x ] | [] -> ());
  (match ys with y :: _ -> send_lines b [ y ] | [] -> ());
  match (xs, ys) with
  | [], [] -> ()
  | _ ->
      send_interleaved a b
        (match xs with _ :: t -> t | [] -> [])
        (match ys with _ :: t -> t | [] -> [])

(* Two sessions streamed strictly interleaved, one line at a time — the
   round-robin slices alternate between them, so any cross-session
   leakage of detector or budget state would corrupt a verdict. *)
let clean_spec = "4096:spill"
let clean_budget = Result.get_ok (Rma_store.Budget.of_spec clean_spec)

let test_interleaved_sessions_isolated () =
  let nprocs_r, events_r = record_kernel racy_kernel in
  let nprocs_c, events_c = record_kernel clean_kernel in
  let races_r, digest_r = offline ~nprocs:nprocs_r events_r in
  let _, digest_c = offline ~budget:clean_budget ~nprocs:nprocs_c events_c in
  let stats =
    with_daemon @@ fun _d port ->
    let a = connect port in
    let b = connect port in
    send_lines a [ hello ~session:"racy" ~nprocs:nprocs_r () ];
    send_lines b
      [ hello ~session:"clean" ~budget:clean_spec ~nprocs:nprocs_c () ];
    Alcotest.(check (option string)) "a admitted" (Some "admitted")
      (Option.map line_type (recv_line a));
    Alcotest.(check (option string)) "b admitted" (Some "admitted")
      (Option.map line_type (recv_line b));
    send_interleaved a b (trace_lines events_r) (trace_lines events_c);
    (try Unix.shutdown a Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
    (try Unix.shutdown b Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
    let ra = recv_all a and rb = recv_all b in
    Unix.close a;
    Unix.close b;
    let races = List.filter (fun l -> line_type l = "race") ra in
    Alcotest.(check (list string)) "interleaved racy session still byte-identical" races_r races;
    let summary_of lines = List.nth lines (List.length lines - 1) in
    Alcotest.(check (option string)) "racy digest" (Some digest_r)
      (str_field "digest" (summary_of ra));
    Alcotest.(check (option string)) "clean digest under a budget" (Some digest_c)
      (str_field "digest" (summary_of rb))
  in
  Alcotest.(check int) "both completed" 2 stats.Daemon.completed

(* The soak: seeded churn of connect / abort / complete clients, then
   the leak audit — no live sessions, and the offline path still
   produces the pre-daemon digest (no session state escaped). *)
let test_session_churn_soak () =
  let nprocs, events_r = record_kernel racy_kernel in
  let _, events_c = record_kernel clean_kernel in
  let racy_lines = trace_lines events_r and clean_lines = trace_lines events_c in
  let races_r, digest_r = offline ~nprocs events_r in
  let _, digest_c = offline ~nprocs events_c in
  let completed = ref 0 and aborted = ref 0 in
  let stats =
    with_daemon ~max_sessions:3 @@ fun d port ->
    let rng = Random.State.make [| 1105 |] in
    for i = 1 to 24 do
      let name = Printf.sprintf "churn-%d" i in
      match Random.State.int rng 3 with
      | 0 ->
          let lines = run_session ~port ~session:name ~nprocs racy_lines in
          Alcotest.(check (option string))
            (name ^ " digest") (Some digest_r)
            (str_field "digest" (List.nth lines (List.length lines - 1)));
          Alcotest.(check int)
            (name ^ " races")
            (List.length races_r)
            (List.length (List.filter (fun l -> line_type l = "race") lines));
          incr completed
      | 1 ->
          let budget = if i mod 2 = 0 then Some "4096:spill" else None in
          let lines = run_session ?budget ~port ~session:name ~nprocs clean_lines in
          Alcotest.(check (option string))
            (name ^ " digest") (Some digest_c)
            (str_field "digest" (List.nth lines (List.length lines - 1)));
          incr completed
      | _ ->
          (* Abort mid-stream: hello plus a truncated prefix, then a
             hard close with no footer. *)
          let fd = connect port in
          let cut = 1 + Random.State.int rng (List.length racy_lines - 2) in
          let prefix = List.filteri (fun j _ -> j < cut) racy_lines in
          send_lines fd (hello ~session:name ~nprocs () :: prefix);
          ignore (recv_line fd) (* admitted *);
          Unix.close fd;
          incr aborted
    done;
    (* The last aborts race the shutdown below: give the loop a round to
       see their EOFs, or they would close as daemon_shutdown instead. *)
    await "abort EOFs to be noticed" (fun () ->
        (Daemon.stats d).Daemon.disconnected = !aborted);
    check_no_active port
  in
  Alcotest.(check int) "every completing client got its summary" !completed
    stats.Daemon.completed;
  Alcotest.(check int) "every abort was seen as a disconnect" !aborted
    stats.Daemon.disconnected;
  (* The leak check's scrape is the one more connection. *)
  Alcotest.(check int) "accepted = completed + aborted + 1 scrape" (!completed + !aborted + 1)
    stats.Daemon.accepted;
  (* The offline reference, recomputed after all that churn, is
     unchanged — per-session budgets never escaped. *)
  let _, digest_after = offline ~nprocs events_r in
  Alcotest.(check string) "offline digest unchanged after the churn" digest_r digest_after

let test_metrics_label_sessions () =
  let nprocs, events = record_kernel racy_kernel in
  let _ =
    with_daemon @@ fun _d port ->
    ignore (run_session ~port ~session:"metrics-probe" ~nprocs (trace_lines events));
    let text = http_get port "/metrics" in
    Alcotest.(check bool) "rma_session_info series present" true
      (contains "\nrma_session_info{" text);
    Alcotest.(check bool) "series carries the session name" true
      (contains "session=\"metrics-probe\"" text);
    Alcotest.(check bool) "closed session labelled with its reason" true
      (contains "state=\"closed:completed\"" text);
    (* The daemon's own series are exact with Obs off; the registry's
       families, which would all read 0, are left out. *)
    Alcotest.(check bool) "completed count from the daemon's stats" true
      (contains "\nrma_serve_sessions_completed 1\n" text);
    Alcotest.(check bool) "no registry family while Obs is off" false
      (contains "rma_telemetry_" text)
  in
  ()

(* The HTTP routes on the daemon's port, with Obs on and the journal in
   its ring: /metrics carries the run id and refreshed telemetry,
   /events the ring (all of it, or one run's records), anything else
   404. A request is not a session: no run id, no journal record. *)
let test_serve_endpoint () =
  Rma_obs.Obs.enable ();
  Rma_obs.Obs.reset ();
  Rma_obs.Events.close ();
  Rma_obs.Events.clear ();
  Rma_obs.Events.set_level Rma_obs.Events.Info;
  Fun.protect
    ~finally:(fun () ->
      Rma_obs.Events.clear ();
      Rma_obs.Obs.disable ();
      Rma_obs.Obs.reset ())
  @@ fun () ->
  Rma_obs.Events.with_run_id "run-test" @@ fun () ->
  Rma_obs.Events.emit ~kv:[ ("event", "probe") ] Rma_obs.Events.Info "test";
  let nprocs, events = record_kernel clean_kernel in
  let stats =
    with_daemon @@ fun _d port ->
    Alcotest.(check bool) "ephemeral port resolved" true (port > 0);
    let metrics = http_get port "/metrics" in
    Alcotest.(check bool) "/metrics is 200" true (contains "HTTP/1.1 200 OK\r\n" metrics);
    Alcotest.(check bool) "/metrics carries the run id" true
      (contains {|rma_run_info{run_id="run-test"} 1|} metrics);
    Alcotest.(check bool) "/metrics refreshes telemetry gauges" true
      (contains "rma_telemetry_peak_rss_bytes" metrics);
    Alcotest.(check bool) "a scrape is no session" false (contains "rma_session_info" metrics);
    let health = http_get port "/healthz" in
    Alcotest.(check bool) "/healthz ok" true (contains "\r\n\r\nok\n" health);
    let lines = run_session ~port ~session:"journaled" ~nprocs (trace_lines events) in
    let run_id = Option.value ~default:"?" (str_field "run_id" (List.hd lines)) in
    let ring = http_get port "/events" in
    Alcotest.(check bool) "/events serves the ring" true (contains {|"event":"probe"|} ring);
    Alcotest.(check bool) "/events has the session's records" true
      (contains {|"event":"session_summary"|} ring);
    let one_run = http_get port ("/events?run=" ^ run_id) in
    Alcotest.(check bool) "?run= keeps the session's records" true
      (contains {|"event":"session_summary"|} one_run);
    Alcotest.(check bool) "?run= drops other runs' records" false
      (contains {|"event":"probe"|} one_run);
    let missing = http_get port "/nope" in
    Alcotest.(check bool) "unknown path is 404" true
      (String.starts_with ~prefix:"HTTP/1.1 404 Not Found\r\n" missing)
  in
  Alcotest.(check int) "one session admitted" 1 stats.Daemon.admitted;
  Alcotest.(check int) "six connections accepted" 6 stats.Daemon.accepted;
  Alcotest.(check int) "no request failed" 0 stats.Daemon.failed;
  let journaled_runs =
    List.sort_uniq String.compare
      (List.map (fun (e : Rma_obs.Events.t) -> e.Rma_obs.Events.run_id) (Rma_obs.Events.recent ()))
  in
  Alcotest.(check int) "records under the test's and the session's run ids only" 2
    (List.length journaled_runs)

(* A scrape in the middle of a session's stream sees it active and
   leaves its verdicts alone. *)
let test_scrape_mid_stream () =
  let nprocs, events = record_kernel racy_kernel in
  let _, expected_digest = offline ~nprocs events in
  let trace = trace_lines events in
  let half = List.length trace / 2 in
  let _ =
    with_daemon @@ fun _d port ->
    let fd = connect port in
    send_lines fd [ hello ~session:"mid" ~nprocs () ];
    Alcotest.(check (option string)) "admitted" (Some "admitted")
      (Option.map line_type (recv_line fd));
    send_lines fd (List.filteri (fun i _ -> i < half) trace);
    let text = http_get port "/metrics" in
    Alcotest.(check bool) "the session is active" true
      (contains "session=\"mid\",state=\"active\"" text);
    Alcotest.(check bool) "one session streaming" true
      (contains "\nrma_serve_active_sessions 1\n" text);
    send_lines fd (List.filteri (fun i _ -> i >= half) trace);
    (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
    let lines = recv_all fd in
    Unix.close fd;
    Alcotest.(check (option string)) "digest matches offline analyze" (Some expected_digest)
      (str_field "digest" (List.nth lines (List.length lines - 1)));
    check_no_active port
  in
  ()

(* A spec error quotes at most 64 bytes of the value: a 60 KiB budget
   spec in a hello comes back as a short error line, and the daemon
   goes on serving. *)
let test_long_hello_error_is_bounded () =
  let nprocs, events = record_kernel clean_kernel in
  let _, expected_digest = offline ~nprocs events in
  let stats =
    with_daemon @@ fun _d port ->
    let budget = "nodes=" ^ String.make (60 * 1024) 'x' in
    let lines = run_session ~budget ~port ~session:"long" ~nprocs [] in
    (match lines with
    | [ l ] ->
        Alcotest.(check string) "an error line" "error" (line_type l);
        Alcotest.(check bool)
          (Printf.sprintf "%d bytes, under 1 KiB" (String.length l))
          true
          (String.length l < 1024)
    | other -> Alcotest.failf "expected one error line, got %d" (List.length other));
    let after = run_session ~port ~session:"after" ~nprocs (trace_lines events) in
    Alcotest.(check (option string)) "the next session completes" (Some expected_digest)
      (str_field "digest" (List.nth after (List.length after - 1)))
  in
  Alcotest.(check int) "one protocol failure" 1 stats.Daemon.failed

(* A fail-fast budget ends a session and the offline ingestion of the
   same trace with the same reason. The daemon outlives the session. *)
let test_budget_exhausted_same_reason () =
  let nprocs, events = record_kernel clean_kernel in
  let lines = trace_lines events in
  let path = Filename.temp_file "rma_serve_budget" ".rma" in
  Out_channel.with_open_bin path (fun oc -> List.iter (fun l -> output_string oc (l ^ "\n")) lines);
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let spec = "nodes=1,policy=fail" in
  let budget = Result.get_ok (Rma_store.Budget.of_spec spec) in
  let reason =
    let make_tool ~nprocs = Toolbox.make Toolbox.Contribution ~nprocs ~budget () in
    match Ingest.file ~nprocs ~make_tool path with
    | Ok _ -> Alcotest.fail "offline ingestion outlived a one-node budget"
    | Error reason -> reason
  in
  Alcotest.(check bool) "offline reason names the budget" true
    (String.starts_with ~prefix:"budget exhausted: " reason);
  let stats =
    with_daemon @@ fun _d port ->
    let served = run_session ~budget:spec ~port ~session:"budget" ~nprocs lines in
    let last = List.nth served (List.length served - 1) in
    Alcotest.(check string) "session ends in error" "error" (line_type last);
    Alcotest.(check (option string)) "session reason is the offline one" (Some reason)
      (str_field "reason" last);
    let after = run_session ~port ~session:"after" ~nprocs lines in
    Alcotest.(check string) "the daemon still completes sessions" "summary"
      (line_type (List.nth after (List.length after - 1)))
  in
  Alcotest.(check int) "the budget session failed" 1 stats.Daemon.failed;
  Alcotest.(check int) "the last session completed" 1 stats.Daemon.completed

(* Clients written for the sharded engine send a shard count: the
   sequential one is admitted and analyzes as before, any other gets a
   short error line, and the daemon goes on serving. *)
let test_hello_jobs_must_be_sequential () =
  let nprocs, events = record_kernel racy_kernel in
  let _, expected_digest = offline ~nprocs events in
  let hello_with jobs =
    Json.to_string ~minify:true
      (Json.Obj
         [ ("hello", Json.Int Protocol.version); ("session", Json.String "jobs");
           ("nprocs", Json.Int nprocs); ("jobs", jobs) ])
  in
  let stats =
    with_daemon @@ fun _d port ->
    let session jobs lines =
      let fd = connect port in
      Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) @@ fun () ->
      send_lines fd (hello_with jobs :: lines);
      (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
      recv_all fd
    in
    List.iter
      (fun (what, jobs) ->
        match session jobs [] with
        | [ l ] ->
            Alcotest.(check string) (what ^ ": an error line") "error" (line_type l);
            Alcotest.(check (option string)) (what ^ ": reason")
              (Some "hello field \"jobs\" must be 1 (the analyzer is sequential)")
              (str_field "reason" l)
        | other -> Alcotest.failf "%s: expected one error line, got %d" what (List.length other))
      [ ("jobs 2", Json.Int 2); ("jobs 0", Json.Int 0); ("jobs as a string", Json.String "1") ];
    let lines = session (Json.Int 1) (trace_lines events) in
    Alcotest.(check (option string)) "jobs 1 admitted" (Some "admitted")
      (Option.map line_type (List.nth_opt lines 0));
    Alcotest.(check (option string)) "jobs 1: digest matches offline analyze"
      (Some expected_digest)
      (str_field "digest" (List.nth lines (List.length lines - 1)))
  in
  Alcotest.(check int) "three refused hellos" 3 stats.Daemon.failed;
  Alcotest.(check int) "the jobs 1 session completed" 1 stats.Daemon.completed

(* Fault injection was removed: a hello naming a fault plan gets a
   short error line instead of an admission that would silently ignore
   it, and the daemon goes on serving. *)
let test_hello_fault_refused () =
  let nprocs, events = record_kernel clean_kernel in
  let _, expected_digest = offline ~nprocs events in
  let stats =
    with_daemon @@ fun _d port ->
    (match run_session ~fault:"seed=7,trace_corrupt=0.05" ~port ~session:"fault" ~nprocs [] with
    | [ l ] ->
        Alcotest.(check string) "an error line" "error" (line_type l);
        Alcotest.(check (option string)) "reason"
          (Some "hello field \"fault\" is not accepted (fault injection was removed)")
          (str_field "reason" l)
    | other -> Alcotest.failf "expected one error line, got %d" (List.length other));
    let after = run_session ~port ~session:"after" ~nprocs (trace_lines events) in
    Alcotest.(check (option string)) "the next session completes" (Some expected_digest)
      (str_field "digest" (List.nth after (List.length after - 1)))
  in
  Alcotest.(check int) "one refused hello" 1 stats.Daemon.failed

(* A client may write an HTTP request a line at a time (bash's printf
   into /dev/tcp does). The daemon answers only at the empty line that
   ends the headers: an answer after the request line alone would close
   the socket under the header bytes still to come, and TCP would reset
   the connection. *)
let test_http_request_in_two_writes () =
  let stats =
    with_daemon @@ fun _d port ->
    let fd = connect port in
    Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) @@ fun () ->
    write_all fd "GET /healthz HTTP/1.1\r\n";
    (* The daemon's step: half a second to read the request line. *)
    let early, _, _ = Unix.select [ fd ] [] [] 0.5 in
    Alcotest.(check bool) "no answer before the headers end" true (early = []);
    write_all fd "Host: localhost\r\n\r\n";
    let response = In_channel.input_all (Unix.in_channel_of_descr fd) in
    Alcotest.(check string) "a full 200 OK"
      "HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: 3\r\n\
       Connection: close\r\n\r\nok\n"
      response
  in
  Alcotest.(check int) "an answered request is no failure" 0 stats.Daemon.failed

let suite =
  [
    Alcotest.test_case "byte-identical verdicts vs offline replay" `Quick
      test_byte_identical_verdicts;
    Alcotest.test_case "format-1 rejected; bad lines error" `Quick test_format1_and_errors;
    Alcotest.test_case "unterminated line closes the session" `Quick
      test_unterminated_line_is_bounded;
    Alcotest.test_case "unknown hello fields are ignored" `Quick test_unknown_hello_field_ignored;
    Alcotest.test_case "admission: queue then shed, queued session promoted" `Quick
      test_admission_queue_and_shed;
    Alcotest.test_case "interleaved sessions stay isolated" `Quick
      test_interleaved_sessions_isolated;
    Alcotest.test_case "session churn soak leaks nothing" `Quick test_session_churn_soak;
    Alcotest.test_case "/metrics labels sessions by run id" `Quick test_metrics_label_sessions;
    Alcotest.test_case "telemetry endpoint serves metrics live" `Quick test_serve_endpoint;
    Alcotest.test_case "a scrape mid-stream leaves the verdicts alone" `Quick
      test_scrape_mid_stream;
    Alcotest.test_case "a 60 KiB budget spec gets a short error" `Quick
      test_long_hello_error_is_bounded;
    Alcotest.test_case "budget exhausted: same reason offline and served" `Quick
      test_budget_exhausted_same_reason;
    Alcotest.test_case "a hello's jobs field admits only the sequential value" `Quick
      test_hello_jobs_must_be_sequential;
    Alcotest.test_case "a hello's fault field is refused" `Quick test_hello_fault_refused;
    Alcotest.test_case "an HTTP request written in two parts gets one answer" `Quick
      test_http_request_in_two_writes;
  ]
