(* Rma_obs.Journal + Rma_report.Replay: totality of the journal reader
   under truncation and bit flips, the prefix-stop contract, the
   [obs stats] golden report over the budgeted-run journal, and the
   replay round trip — re-running a journaled budget drill reproduces
   its race count and byte-identical verdicts. *)

module Obs = Rma_obs.Obs
module Events = Rma_obs.Events
module Journal = Rma_obs.Journal
module Diag = Rma_report.Diag
module Replay = Rma_report.Replay
module Tool = Rma_analysis.Tool
module Toolbox = Rma_analysis.Toolbox

(* --- line-level totality --------------------------------------------- *)

let with_temp_journal text f =
  let path = Filename.temp_file "rma_journal" ".jsonl" in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* One journal line through the public reader: the event it decodes to,
   or the reason [read_file] stops at it. *)
let parse_line line =
  with_temp_journal line @@ fun path ->
  match Journal.read_file path with
  | { Journal.error = Some e; _ } -> Error e.Journal.reason
  | { Journal.events = [ ev ]; _ } -> Ok ev
  | { Journal.events; _ } -> Error (Printf.sprintf "%d events on one line" (List.length events))

let arb_event =
  let open QCheck in
  let str_gen = Gen.string_size ~gen:Gen.printable (Gen.int_range 0 12) in
  let level_gen = Gen.oneofl [ Events.Debug; Events.Info; Events.Warn; Events.Error ] in
  make
    ~print:(fun ev -> Events.line ev)
    Gen.(
      let* level = level_gen in
      let* component = str_gen in
      let* run_id = str_gen in
      let* span_id = int_range 0 1000 in
      let* ts = Gen.map (fun i -> float_of_int i *. 0.125) (int_range 0 100) in
      let* kv = list_size (int_range 0 4) (pair str_gen str_gen) in
      return { Events.ts; level; component; run_id; span_id; kv })

let prop_parse_line_total =
  QCheck.Test.make ~name:"parse_line is total under single bit flips" ~count:500
    QCheck.(pair arb_event (pair small_nat small_nat))
    (fun (ev, (byte_seed, bit)) ->
      let line = Bytes.of_string (Events.line ev) in
      let i = byte_seed mod Bytes.length line in
      Bytes.set line i (Char.chr (Char.code (Bytes.get line i) lxor (1 lsl (bit mod 8))));
      (* Flipping any one bit must never raise: the reader answers
         [Ok] (the flip kept the record well-formed) or [Error]. *)
      match parse_line (Bytes.to_string line) with
      | Ok _ | Error _ -> true
      | exception e -> QCheck.Test.fail_reportf "parse_line raised %s" (Printexc.to_string e))

let prop_parse_line_roundtrip =
  QCheck.Test.make ~name:"parse_line inverts Events.line" ~count:500 arb_event (fun ev ->
      match parse_line (Events.line ev) with
      | Error msg -> QCheck.Test.fail_reportf "valid line rejected: %s" msg
      | Ok got ->
          got.Events.level = ev.Events.level
          && got.Events.component = ev.Events.component
          && got.Events.run_id = ev.Events.run_id
          && got.Events.span_id = ev.Events.span_id
          && got.Events.kv = ev.Events.kv)

(* --- file-level totality: truncation and mid-file garbage ------------- *)

let events_equal a b = Events.line a = Events.line b

(* Cutting a journal at any byte offset keeps the reader total and the
   decoded events a positional prefix of the originals: every complete
   line before the cut decodes, and only a non-empty partial tail can
   produce an error (naming the first bad line). *)
let prop_truncation =
  QCheck.Test.make ~name:"read_file survives truncation at any offset" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 1 8) arb_event) small_nat)
    (fun (evs, cut_seed) ->
      let text = String.concat "" (List.map (fun ev -> Events.line ev ^ "\n") evs) in
      let cut = cut_seed mod (String.length text + 1) in
      with_temp_journal (String.sub text 0 cut) @@ fun path ->
      let r = Journal.read_file path in
      let n = List.length r.Journal.events in
      n <= List.length evs
      && List.for_all2 events_equal r.Journal.events
           (List.filteri (fun i _ -> i < n) evs)
      && (match r.Journal.error with
         | None -> true
         | Some e -> e.Journal.at_line = n + 1))

(* Flipping one bit of line [i] leaves lines 1..i-1 intact; reading
   stops at [i] (or sails past it when the flip kept the line valid),
   never earlier and never with an exception. *)
let prop_bit_flip =
  QCheck.Test.make ~name:"read_file stops at the first flipped line" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 1 8) arb_event) (pair small_nat (pair small_nat small_nat)))
    (fun (evs, (line_seed, (byte_seed, bit))) ->
      let lines = List.map Events.line evs in
      let target = line_seed mod List.length lines in
      let flipped =
        List.mapi
          (fun i l ->
            if i <> target then l
            else begin
              let b = Bytes.of_string l in
              let j = byte_seed mod Bytes.length b in
              Bytes.set b j (Char.chr (Char.code (Bytes.get b j) lxor (1 lsl (bit mod 8))));
              Bytes.to_string b
            end)
          lines
      in
      with_temp_journal (String.concat "" (List.map (fun l -> l ^ "\n") flipped)) @@ fun path ->
      let r = Journal.read_file path in
      let n = List.length r.Journal.events in
      let prefix_ok =
        List.for_all2 events_equal
          (List.filteri (fun i _ -> i < min n target) r.Journal.events)
          (List.filteri (fun i _ -> i < min n target) evs)
      in
      prefix_ok
      &&
      match r.Journal.error with
      | Some e -> n = target && e.Journal.at_line = target + 1
      | None -> n = List.length evs)

(* An unknown level or an ill-typed kv value names at most 64 bytes of
   the level or key, then "…" and its length. The field is as long as a
   line under the reader's 64 KiB cap lets it be. *)
let test_long_field_errors_are_bounded () =
  let long = String.make 60_000 'k' in
  let line ~level ~kv =
    Printf.sprintf
      {|{"ts":0.0,"level":"%s","component":"c","run_id":"r","shard":-1,"span_id":0,"kv":{%s}}|}
      level kv
  in
  List.iter
    (fun (what, text, expected) ->
      match parse_line text with
      | Ok _ -> Alcotest.failf "%s: accepted" what
      | Error msg -> Alcotest.(check string) what expected msg)
    [
      ( "unknown level",
        line ~level:long ~kv:"",
        Printf.sprintf "unknown level %S… (60000 bytes)" (String.make 64 'k') );
      ( "ill-typed kv value",
        line ~level:"info" ~kv:(Printf.sprintf {|"%s":1|} long),
        Printf.sprintf "ill-typed kv value for %S… (60000 bytes)" (String.make 64 'k') );
    ]

let test_unreadable_file () =
  let r = Journal.read_file "/nonexistent/journal.jsonl" in
  Alcotest.(check int) "no events" 0 (List.length r.Journal.events);
  match r.Journal.error with
  | Some e -> Alcotest.(check int) "at_line 0 marks an unopenable file" 0 e.Journal.at_line
  | None -> Alcotest.fail "expected an error for an unopenable path"

(* A journal line is capped like a trace line: a 20 MiB line is refused
   once it passes the cap, never read whole, so neither the heap's high
   water mark nor the words allocated grow with it; the line before it
   still decodes. *)
let test_long_journal_line_is_bounded () =
  let ev =
    { Events.ts = 1.0; level = Events.Info; component = "test"; run_id = "r"; span_id = 0; kv = [] }
  in
  let path = Filename.temp_file "rma_journal_long" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let block = String.make 65536 'x' in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Events.line ev ^ "\n");
      for _ = 1 to 320 do
        output_string oc block
      done;
      output_string oc "\n");
  let mib_words = (1 lsl 20) / (Sys.word_size / 8) in
  let stat () =
    Gc.full_major ();
    Gc.quick_stat ()
  in
  let before = stat () in
  let r = Journal.read_file path in
  let after = stat () in
  Alcotest.(check int) "the line before decodes" 1 (List.length r.Journal.events);
  Alcotest.(check (option string)) "error text" (Some "line 2: line too long")
    (Option.map Journal.error_to_string r.Journal.error);
  Alcotest.(check bool) "top_heap_words grows by under 1 MiB" true
    (after.Gc.top_heap_words - before.Gc.top_heap_words < mib_words);
  Alcotest.(check bool) "under 1 MiB allocated in the major heap" true
    (after.Gc.major_words -. before.Gc.major_words < float_of_int mib_words)

(* --- stats golden over the budgeted-run journal ----------------------- *)

(* The same golden journal test_events pins (run-golden, budget
   4:spill — timestamps scrubbed to 0), aggregated into the [obs stats]
   report. GOLDEN_OUT_STATS=/abs/path regenerates. *)
let test_stats_golden () =
  let r = Journal.read_file "golden/events_journal.jsonl" in
  Alcotest.(check bool) "golden journal reads clean" true (r.Journal.error = None);
  let text =
    Journal.render_stats ~source:"golden/events_journal.jsonl"
      (Journal.stats_of r.Journal.events)
  in
  Golden_regen.check ~name:"obs_stats.txt" ~what:"stats match the golden report" text

let test_stats_counts () =
  let r = Journal.read_file "golden/events_journal.jsonl" in
  let s = Journal.stats_of r.Journal.events in
  Alcotest.(check int) "every event counted" (List.length r.Journal.events) s.Journal.total;
  Alcotest.(check (list string)) "one run id" [ "run-golden" ] s.Journal.run_ids;
  Alcotest.(check int) "budget degradations surface" 4 s.Journal.degradations

(* --- replay round trip ------------------------------------------------ *)

(* A small injected-race MiniVite drill under a spilling budget,
   journaled through the same Diag bracket the CLI uses; the journal
   alone must then reproduce the run: the same race count and a
   byte-identical verdict digest. *)
let drill_params = [ ("tool", "contribution"); ("ranks", "4"); ("seed", "5"); ("vertices", "2000"); ("inject", "true") ]

let run_drill run =
  let config = { Mpi_sim.Config.default with Mpi_sim.Config.analysis_overhead_scale = 2.0 } in
  let params =
    {
      Minivite.Louvain.default_params with
      Minivite.Louvain.graph =
        { Minivite.Graph.default_params with Minivite.Graph.n_vertices = 2000 };
      inject_race = true;
    }
  in
  let tool = Rma_report.Harness.make_tool ~run Toolbox.Contribution ~nprocs:4 ~config in
  let _ = Minivite.Louvain.run params ~nprocs:4 ~seed:5 ~config ~observer:tool.Tool.observer () in
  tool.Tool.races ()

let test_replay_roundtrip () =
  let journal = Filename.temp_file "rma_replay_test" ".jsonl" in
  let restore () =
    Events.close ();
    Events.clear ();
    Events.set_level Events.Info;
    Obs.disable ();
    Obs.reset ();
    try Sys.remove journal with Sys_error _ -> ()
  in
  Fun.protect ~finally:restore @@ fun () ->
  Diag.with_diag ~prog:"test" ~generator:"test"
    ~workload:("minivite", drill_params)
    { Diag.default with Diag.obs_events = Some journal; budget = Some "4:spill" }
    run_drill;
  let r = Journal.read_file journal in
  Alcotest.(check bool) "drill journal reads clean" true (r.Journal.error = None);
  Alcotest.(check bool) "the drill degraded" true
    (List.exists
       (fun e -> List.assoc_opt "event" e.Events.kv = Some "budget_degradation")
       r.Journal.events);
  let plan =
    match Replay.extract r.Journal.events with
    | Ok p -> p
    | Error msg -> Alcotest.failf "extract failed: %s" msg
  in
  Alcotest.(check string) "workload recovered" "minivite" plan.Replay.r_workload;
  Alcotest.(check (option string)) "budget recovered" (Some "nodes=4,policy=spill_oldest_epoch")
    (Option.map Rma_store.Budget.to_spec plan.Replay.r_config.Rma_config.Run_config.budget);
  Alcotest.(check bool) "run_summary landed" true (plan.Replay.r_digest <> None);
  let replay plan =
    match Replay.run plan with
    | Ok o -> o
    | Error msg -> Alcotest.failf "replay failed: %s" msg
  in
  let outcome = replay plan in
  Alcotest.(check (option bool)) "race count and verdicts match" (Some true)
    outcome.Replay.o_match;
  Alcotest.(check bool) "races reproduce" true
    (Some outcome.Replay.o_races = plan.Replay.r_races && outcome.Replay.o_races > 0);
  Alcotest.(check bool) "replay verdict holds" true (Replay.verdict outcome);
  (* The contract is falsifiable: a journal claiming a different race
     count or digest must fail the verdict. *)
  let tampered =
    [
      ("race count", { plan with Replay.r_races = Option.map succ plan.Replay.r_races });
      ("digest", { plan with Replay.r_digest = Some "0" });
    ]
  in
  List.iter
    (fun (what, p) ->
      Alcotest.(check bool) ("tampered " ^ what ^ " fails") false (Replay.verdict (replay p)))
    tampered

(* The run_start record carries the whole run configuration: a
   predictive code run journals predictive=true and replays under it. A
   journal written before the predictive and interleave-seed keys
   existed still extracts, with their old defaults. *)
let test_journal_records_run_config () =
  let journal = Filename.temp_file "rma_predictive_journal" ".jsonl" in
  let restore () =
    Events.close ();
    Events.clear ();
    Obs.disable ();
    Obs.reset ();
    try Sys.remove journal with Sys_error _ -> ()
  in
  Fun.protect ~finally:restore @@ fun () ->
  let code = "ll_get_get_inwindow_origin_race" in
  Diag.with_diag ~prog:"test" ~generator:"test"
    ~workload:("code", [ ("tool", "contribution"); ("code", code) ])
    { Diag.default with Diag.obs_events = Some journal; predictive = true }
    (fun run ->
      let tool =
        Toolbox.make Toolbox.Contribution ~nprocs:3
          ~predictive:run.Rma_config.Run_config.predictive ()
      in
      (Rma_microbench.Runner.run ~tool (Option.get (Rma_microbench.Scenario.find code)))
        .Rma_microbench.Runner.reports);
  let plan =
    match Replay.extract (Journal.read_file journal).Journal.events with
    | Ok p -> p
    | Error msg -> Alcotest.failf "extract failed: %s" msg
  in
  Alcotest.(check bool) "predictive=true read back" true
    plan.Replay.r_config.Rma_config.Run_config.predictive;
  Alcotest.(check (list (pair string string))) "config keys are not workload parameters"
    [ ("tool", "contribution"); ("code", code) ]
    plan.Replay.r_params;
  (match Replay.run plan with
  | Ok o -> Alcotest.(check bool) "the predictive run replays" true (Replay.verdict o)
  | Error msg -> Alcotest.failf "replay failed: %s" msg);
  (* A run_start line as older versions wrote it: a [shard] key on the
     record and a [jobs] key in the configuration. The reader ignores
     the first; extract keeps the second out of the workload parameters. *)
  let old_start ?(extra = []) () =
    let kv = List.map (fun (k, v) -> Printf.sprintf {|,"%s":"%s"|} k v) extra in
    let line =
      Printf.sprintf
        {|{"ts":0.5,"level":"info","component":"diag","run_id":"run-old","shard":-1,"span_id":0,"kv":{"event":"run_start","workload":"code","tool":"contribution","code":"%s","jobs":"2"%s}}|}
        code (String.concat "" kv)
    in
    match parse_line line with
    | Ok ev -> ev
    | Error msg -> Alcotest.failf "an older journal line no longer reads: %s" msg
  in
  let ev = old_start () in
  Alcotest.(check string) "old line: run id" "run-old" ev.Events.run_id;
  Alcotest.(check (float 0.0)) "old line: ts" 0.5 ev.Events.ts;
  (match Replay.extract [ ev ] with
  | Error msg -> Alcotest.failf "an older journal no longer extracts: %s" msg
  | Ok p ->
      let c = p.Replay.r_config in
      Alcotest.(check (list (pair string string))) "old journal: jobs is no workload parameter"
        [ ("tool", "contribution"); ("code", code) ]
        p.Replay.r_params;
      Alcotest.(check bool) "old journal: predictive off" false c.Rma_config.Run_config.predictive;
      Alcotest.(check (option int)) "old journal: no interleave seed" None
        c.Rma_config.Run_config.interleave_seed);
  (* A run that still had trace-write fault injection journaled its
     plan as [fault]. The plan never touched a verdict, so such a
     journal extracts, and [fault] is no workload parameter. *)
  let old_spec =
    "seed=7,trace_corrupt=0,trace_truncate=0,worker_crash=0.2,queue_overflow=0,max_retries=3,backoff=0"
  in
  (match Replay.extract [ old_start ~extra:[ ("fault", old_spec) ] () ] with
  | Error msg -> Alcotest.failf "a journal naming a fault plan no longer extracts: %s" msg
  | Ok p ->
      Alcotest.(check (list (pair string string))) "old journal: fault is no workload parameter"
        [ ("tool", "contribution"); ("code", code) ]
        p.Replay.r_params;
      Alcotest.(check bool) "old journal: default configuration" true
        (p.Replay.r_config = Rma_config.Run_config.default));
  (* A malformed setting is quoted clipped: a 60 KiB budget names its
     first 64 bytes and its length. *)
  let long = String.make (60 * 1024) 'x' in
  match Replay.extract [ old_start ~extra:[ ("budget", long) ] () ] with
  | Ok _ -> Alcotest.fail "a 60 KiB budget extracted"
  | Error msg ->
      let clipped = Printf.sprintf "%S… (%d bytes)" (String.sub long 0 64) (String.length long) in
      Alcotest.(check string) "long budget: clipped twice"
        (Printf.sprintf "run_start record: bad budget %s: expected key=value, got %s" clipped
           clipped)
        msg

let test_extract_requires_header () =
  match Replay.extract [] with
  | Ok _ -> Alcotest.fail "empty journal must not extract"
  | Error msg ->
      Alcotest.(check bool) "error names the missing run_start" true
        (Astring.String.is_infix ~affix:"run_start" msg)

(* A journal from a build that still ran the Graph500 BFS workload
   extracts, but replay refuses it by name. *)
let test_replay_refuses_unknown_workload () =
  let start =
    {
      Events.ts = 0.0;
      level = Events.Info;
      component = "diag";
      run_id = "run-bfs";
      span_id = 0;
      kv = [ ("event", "run_start"); ("workload", "bfs"); ("ranks", "8") ];
    }
  in
  match Replay.extract [ start ] with
  | Error msg -> Alcotest.failf "a bfs run_start no longer extracts: %s" msg
  | Ok plan -> (
      match Replay.run plan with
      | Ok _ -> Alcotest.fail "a bfs journal replayed"
      | Error msg ->
          Alcotest.(check string) "refusal names the replayable workloads"
            "workload \"bfs\" is not replayable (replay covers cfd, minivite, code and kernel)" msg)

(* The built CLI, which the kernel tests drive: the subcommand
   assembles the journal's run_start record. *)
let cli = Filename.concat (Filename.dirname Sys.executable_name) "../bin/rma_race_cli.exe"

(* [rma_race kernel --seed 7] journals its seed: the journal, not the
   command line, is where a run's parameters are recorded. *)
let test_kernel_journals_its_seed () =
  let kernel = (List.hd Rma_microbench.Scenario.Kernel.all).Rma_microbench.Scenario.Kernel.k_name in
  let path = Filename.temp_file "rma_kernel" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let command =
    Filename.quote_command cli ~stdout:Filename.null
      [ "kernel"; kernel; "--seed"; "7"; "--obs-events"; path ]
  in
  Alcotest.(check int) "the kernel run exits 0" 0 (Sys.command command);
  let r = Journal.read_file path in
  match
    List.find_opt
      (fun e -> List.assoc_opt "event" e.Events.kv = Some "run_start")
      r.Journal.events
  with
  | None -> Alcotest.fail "no run_start record"
  | Some start ->
      Alcotest.(check (option string)) "the kernel is named" (Some kernel)
        (List.assoc_opt "kernel" start.Events.kv);
      Alcotest.(check (option string)) "the seed is journaled" (Some "7")
        (List.assoc_opt "seed" start.Events.kv)

(* A kernel run's journal is enough to run it again: [obs replay]
   rebuilds it from the journaled kernel, tool, seed and interleave
   seed, and gets the same race count and digest. *)
let test_kernel_journal_replays () =
  let path = Filename.temp_file "rma_kernel_replay" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let command =
    Filename.quote_command cli ~stdout:Filename.null
      [
        "kernel"; "hyb_fence_remote_tload_window_close_race"; "--seed"; "7"; "--interleave-seed";
        "13"; "--obs-events"; path;
      ]
  in
  Alcotest.(check int) "the kernel run exits 0" 0 (Sys.command command);
  let plan =
    match Replay.extract (Journal.read_file path).Journal.events with
    | Ok p -> p
    | Error msg -> Alcotest.failf "extract failed: %s" msg
  in
  Alcotest.(check (option int)) "the interleave seed is journaled" (Some 13)
    plan.Replay.r_config.Rma_config.Run_config.interleave_seed;
  match Replay.run plan with
  | Error msg -> Alcotest.failf "replay failed: %s" msg
  | Ok o ->
      Alcotest.(check bool) "the kernel races" true (o.Replay.o_races > 0);
      Alcotest.(check (option bool)) "race count and digest match" (Some true) o.Replay.o_match

(* An unknown kernel name is refused before the run is journaled, so
   the journal holds no run_start without its run_summary. *)
let test_unknown_kernel_journals_nothing () =
  let path = Filename.temp_file "rma_kernel_unknown" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let command =
    Filename.quote_command cli ~stdout:Filename.null ~stderr:Filename.null
      [ "kernel"; "no_such_kernel"; "--obs-events"; path ]
  in
  Alcotest.(check int) "the run exits 2" 2 (Sys.command command);
  Alcotest.(check int) "no record journaled" 0
    (List.length (Journal.read_file path).Journal.events)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_parse_line_total;
    QCheck_alcotest.to_alcotest prop_parse_line_roundtrip;
    QCheck_alcotest.to_alcotest prop_truncation;
    QCheck_alcotest.to_alcotest prop_bit_flip;
    Alcotest.test_case "unopenable path is a line-0 error" `Quick test_unreadable_file;
    Alcotest.test_case "a 20 MiB journal line grows the heap by under 1 MiB" `Quick
      test_long_journal_line_is_bounded;
    Alcotest.test_case "level and kv-key errors quote at most 64 bytes" `Quick
      test_long_field_errors_are_bounded;
    Alcotest.test_case "obs stats matches the golden report" `Quick test_stats_golden;
    Alcotest.test_case "stats aggregate the seeded drill" `Quick test_stats_counts;
    Alcotest.test_case "journaled drill replays byte-identically" `Quick test_replay_roundtrip;
    Alcotest.test_case "extract demands a run_start header" `Quick test_extract_requires_header;
    Alcotest.test_case "replay refuses a bfs run_start" `Quick test_replay_refuses_unknown_workload;
    Alcotest.test_case "the journal records the whole run configuration" `Quick
      test_journal_records_run_config;
    Alcotest.test_case "a kernel run journals its seed" `Quick test_kernel_journals_its_seed;
    Alcotest.test_case "a kernel journal replays" `Quick test_kernel_journal_replays;
    Alcotest.test_case "an unknown kernel journals nothing" `Quick
      test_unknown_kernel_journals_nothing;
  ]
