(* The race-provenance pipeline: flight recorder semantics and JSON/SARIF
   exports. *)

open Rma_access
open Rma_store
open Rma_analysis
open Rma_report
module Event = Mpi_sim.Event
module Json = Rma_util.Json

let mk_access ~seq ~line ~op lo hi kind =
  Access.make
    ~interval:(Interval.make ~lo ~hi)
    ~kind ~issuer:0 ~seq
    ~debug:(Debug_info.make ~file:"code1.c" ~line ~operation:op)

let with_recorder f =
  Flight_recorder.enable ();
  Fun.protect ~finally:Flight_recorder.disable f

(* Figure 5's Code 1 against the contribution tool: Load(4) is dominated
   by the Put's fragment (Table 1) and every piece merges back into one
   [2..12] node carrying only the Put's debug info, then Store(7) races
   against it. The canonical provenance-loss case. [predictive] is the
   run-configuration sweep's axis. *)
let code1_race_reports ?predictive () =
  let tool =
    Rma_analyzer.create ~nprocs:2 ~mode:Tool.Collect ?predictive Rma_analyzer.Contribution
  in
  let feed e = ignore (tool.Tool.observer e) in
  let access ~seq ~line ~op lo hi kind =
    Event.Access
      {
        Event.space = 0;
        access = mk_access ~seq ~line ~op lo hi kind;
        win = Some 0;
        relevant = true;
        on_stack = false;
        sim_time = float_of_int seq;
      }
  in
  feed (Event.Epoch_opened { win = 0; rank = 0; sim_time = 0.0 });
  feed (access ~seq:1 ~line:1 ~op:"Load" 4 4 Access_kind.Local_read);
  feed (access ~seq:2 ~line:2 ~op:"MPI_Put" 2 12 Access_kind.Rma_read);
  feed (access ~seq:3 ~line:3 ~op:"Store" 7 7 Access_kind.Local_write);
  tool.Tool.races ()

(* --- flight recorder ----------------------------------------------- *)

let test_recorder_disabled_noop () =
  Alcotest.(check bool) "recorder off by default" false (Flight_recorder.is_enabled ());
  Alcotest.(check bool) "create yields no ring" true (Flight_recorder.create () = None);
  let store = Disjoint_store.create () in
  ignore (Disjoint_store.insert store (mk_access ~seq:1 ~line:1 ~op:"Load" 0 7 Access_kind.Local_read));
  Alcotest.(check bool) "store carries no recorder" true (Disjoint_store.recorder store = None);
  let reports = code1_race_reports () in
  Alcotest.(check int) "code1 still races without the recorder" 1 (List.length reports);
  let r = List.hd reports in
  Alcotest.(check int) "no history recorded" 0
    (List.length r.Report.provenance.Report.existing_history)

(* Every origin a ring holds, oldest first: its history over all bytes. *)
let origins ring = Flight_recorder.history ring (Interval.make ~lo:min_int ~hi:max_int)

(* A ring as a store gets it while recording is on. *)
let fresh_ring () =
  match with_recorder Flight_recorder.create with
  | Some ring -> ring
  | None -> Alcotest.fail "an enabled recorder gave no ring"

let test_ring_eviction_keeps_newest () =
  let ring = fresh_ring () in
  (* 518 origins through a ring of 512. *)
  for seq = 1 to 518 do
    Flight_recorder.record ring (mk_access ~seq ~line:seq ~op:"Load" seq seq Access_kind.Local_read)
  done;
  Alcotest.(check int) "length is the capacity" 512 (List.length (origins ring));
  let seqs =
    List.map (fun (o : Flight_recorder.origin) -> o.Flight_recorder.access.Access.seq)
      (origins ring)
  in
  Alcotest.(check (list int)) "newest 512 survive, oldest first"
    (List.init 512 (fun i -> i + 7))
    seqs;
  let hits = Flight_recorder.history ring (Interval.make ~lo:8 ~hi:9) in
  Alcotest.(check int) "history filters by overlap" 2 (List.length hits)

let test_recorder_epochs_stamp_origins () =
  let ring = fresh_ring () in
  Flight_recorder.note_epoch ring;
  Flight_recorder.record ring (mk_access ~seq:1 ~line:1 ~op:"Load" 0 0 Access_kind.Local_read);
  Flight_recorder.note_epoch ring;
  Flight_recorder.record ring (mk_access ~seq:2 ~line:2 ~op:"Load" 0 0 Access_kind.Local_read);
  let epochs =
    List.map (fun (o : Flight_recorder.origin) -> o.Flight_recorder.epoch)
      (origins ring)
  in
  Alcotest.(check (list int)) "each origin stamped with its epoch" [ 1; 2 ] epochs;
  Flight_recorder.clear ring;
  Alcotest.(check int) "clear drops history" 0 (List.length (origins ring));
  Alcotest.(check int) "clear keeps the epoch counter" 2 (Flight_recorder.current_epoch ring)

(* --- provenance through the analyzer ------------------------------- *)

let test_merged_race_names_both_sources () =
  (* The acceptance case: the surviving node says line 2, the recorder
     still names the dominated Load at line 1. *)
  let reports = with_recorder code1_race_reports in
  Alcotest.(check int) "one race" 1 (List.length reports);
  let r = List.hd reports in
  let lines = List.map (fun (d : Debug_info.t) -> d.Debug_info.line) (Report.contributing_debugs r) in
  List.iter
    (fun line ->
      Alcotest.(check bool)
        (Printf.sprintf "line %d implicated" line)
        true (List.mem line lines))
    [ 1; 2; 3 ];
  Alcotest.(check bool) "existing history holds both merged sources" true
    (List.length r.Report.provenance.Report.existing_history >= 2);
  Alcotest.(check int) "race id assigned" 1 r.Report.provenance.Report.id;
  Alcotest.(check (option int)) "epoch recorded" (Some 1) r.Report.provenance.Report.epoch

(* --- JSON ----------------------------------------------------------- *)

let test_json_round_trip () =
  let reports = with_recorder code1_race_reports in
  let json = Race_export.to_json ~generator:"test" reports in
  let text = Json.to_string json in
  match Export_io.decode json with
  | Error msg -> Alcotest.failf "decode failed: %s" msg
  | Ok reports' ->
      Alcotest.(check int) "report count survives" (List.length reports) (List.length reports');
      (* Identity on every exported field: re-serialising the decoded
         reports reproduces the bytes. *)
      Alcotest.(check string) "byte-identical re-export" text
        (Json.to_string (Race_export.to_json ~generator:"test" reports'))

(* A race detected on a budget-degraded store: a Coarsen budget of two
   nodes collapses six adjacent same-kind reads with distinct source
   lines (which regular merging refuses), then a local write lands on
   the coarse node. The report must carry [degraded = true] end-to-end:
   JSON round-trip, and downgraded confidence in SARIF. *)
let degraded_race_reports () =
  let budget =
    {
      Rma_store.Budget.max_nodes = Some 2;
      max_bytes = None;
      policy = Rma_store.Budget.Coarsen;
    }
  in
  let tool = Rma_analyzer.create ~nprocs:2 ~mode:Tool.Collect ~budget Rma_analyzer.Contribution in
  let feed e = ignore (tool.Tool.observer e) in
  let access ~seq ~line ~op lo hi kind =
    Event.Access
      {
        Event.space = 0;
        access = mk_access ~seq ~line ~op lo hi kind;
        win = Some 0;
        relevant = true;
        on_stack = false;
        sim_time = float_of_int seq;
      }
  in
  feed (Event.Epoch_opened { win = 0; rank = 0; sim_time = 0.0 });
  for i = 0 to 5 do
    feed
      (access ~seq:(i + 1) ~line:(i + 1) ~op:"MPI_Get"
         (i * 4)
         ((i * 4) + 3)
         Access_kind.Rma_read)
  done;
  feed (access ~seq:7 ~line:9 ~op:"Store" 5 5 Access_kind.Local_write);
  (tool.Tool.races (), (tool.Tool.bst_summary ()).Tool.degraded_drops_total)

let test_degraded_race_flagged () =
  let reports, drops = degraded_race_reports () in
  Alcotest.(check bool) "the coarsen budget degraded the store" true (drops > 0);
  Alcotest.(check int) "the write still races" 1 (List.length reports);
  let r = List.hd reports in
  Alcotest.(check bool) "provenance carries the degradation" true
    r.Report.provenance.Report.degraded;
  (* The flag survives the JSON round trip. *)
  match Export_io.decode (Race_export.to_json ~generator:"test" reports) with
  | Error msg -> Alcotest.failf "round trip failed: %s" msg
  | Ok reports' ->
      Alcotest.(check bool) "degraded survives JSON" true
        (List.hd reports').Report.provenance.Report.degraded

(* Too new, and v1: its races predate the required [degraded] flag. *)
let test_json_rejects_bad_version () =
  List.iter
    (fun v ->
      let json = Json.Obj [ ("schema_version", Json.Int v); ("races", Json.List []) ] in
      match Export_io.decode json with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "schema version %d accepted" v)
    [ 999; 1 ]

(* --- SARIF ----------------------------------------------------------- *)

let test_sarif_matches_golden () =
  let reports = with_recorder code1_race_reports in
  let sarif = Export_io.sarif reports in
  (* GOLDEN_OUT=/abs/path (or GOLDEN_OUT_DIR, see test/golden_regen.ml)
     regenerates the golden file instead of comparing (after an
     intentional format change). *)
  Golden_regen.check ~name:"race.sarif" ~what:"SARIF export matches golden file" sarif

let test_degraded_sarif_matches_golden () =
  let reports, _ = degraded_race_reports () in
  let sarif = Export_io.sarif reports in
  (* The downgrade is asserted structurally before any golden diff, so a
     blind regeneration cannot launder it away. *)
  Alcotest.(check bool) "degraded result downgraded to warning" true
    (Astring.String.is_infix ~affix:"\"level\": \"warning\"" sarif);
  Alcotest.(check bool) "confidence property present" true
    (Astring.String.is_infix ~affix:"\"confidence\": \"downgraded\"" sarif);
  Golden_regen.check ~name:"race_degraded.sarif" ~what:"degraded SARIF matches golden file"
    sarif

let test_sarif_lists_all_locations () =
  let reports = with_recorder code1_race_reports in
  let sarif = Export_io.sarif reports in
  Alcotest.(check bool) "SARIF version marker present" true
    (Astring.String.is_infix ~affix:"\"2.1.0\"" sarif);
  (* Lines 1 (merged-away Load), 2 (surviving Put) and 3 (incoming
     Store) must all be named somewhere in the result. *)
  List.iter
    (fun line ->
      Alcotest.(check bool)
        (Printf.sprintf "startLine %d exported" line)
        true
        (Astring.String.is_infix ~affix:(Printf.sprintf "\"startLine\": %d" line) sarif))
    [ 1; 2; 3 ]

let test_explain_names_merged_source () =
  let reports = with_recorder code1_race_reports in
  let text = Race_export.explain (List.hd reports) in
  Alcotest.(check bool) "explain shows the merged-away Load" true
    (Astring.String.is_infix ~affix:"code1.c:1" text);
  Alcotest.(check bool) "explain shows the matrix cell" true
    (Astring.String.is_infix ~affix:"Figure 3 cell" text)

let test_explain_matches_golden () =
  let reports = with_recorder code1_race_reports in
  Alcotest.(check int) "one race" 1 (List.length reports);
  (* GOLDEN_OUT_EXPLAIN=/abs/path (or GOLDEN_OUT_DIR, see
     test/golden_regen.ml) regenerates the golden file instead of
     comparing (after an intentional format change). *)
  Golden_regen.check ~name:"explain.txt" ~what:"explain matches the golden file"
    (Race_export.explain (List.hd reports) ^ "\n")

let suite =
  [
    Alcotest.test_case "disabled recorder is a no-op" `Quick test_recorder_disabled_noop;
    Alcotest.test_case "ring eviction keeps the newest origins" `Quick
      test_ring_eviction_keeps_newest;
    Alcotest.test_case "origins are epoch-stamped; clear keeps the counter" `Quick
      test_recorder_epochs_stamp_origins;
    Alcotest.test_case "merged-node race names both source accesses" `Quick
      test_merged_race_names_both_sources;
    Alcotest.test_case "race JSON round-trips byte-identically" `Quick test_json_round_trip;
    Alcotest.test_case "race JSON rejects unknown schema versions" `Quick
      test_json_rejects_bad_version;
    Alcotest.test_case "degraded store flags its races end-to-end" `Quick
      test_degraded_race_flagged;
    Alcotest.test_case "SARIF export matches the golden file" `Quick test_sarif_matches_golden;
    Alcotest.test_case "degraded SARIF downgraded and golden-stable" `Quick
      test_degraded_sarif_matches_golden;
    Alcotest.test_case "SARIF names every contributing location" `Quick
      test_sarif_lists_all_locations;
    Alcotest.test_case "explain renders the merged-away source" `Quick
      test_explain_names_merged_source;
    Alcotest.test_case "explain output matches the golden file" `Quick
      test_explain_matches_golden;
  ]

(* --- Hybrid thread fields in race exports (PR 8) --- *)

let read_golden path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Back-compat pin: a single-thread race export must not contain thread
   fields anywhere — byte-identical to the schema-v2 shape the pre-hybrid
   tool wrote. *)
let test_single_thread_json_has_no_thread_fields () =
  let reports = with_recorder code1_race_reports in
  Alcotest.(check bool) "have reports" true (reports <> []);
  let json = Json.to_string (Race_export.to_json ~generator:"test" reports) in
  Alcotest.(check bool) "no thread field in single-thread export" false
    (Astring.String.is_infix ~affix:"thread" json);
  let sarif = Export_io.sarif reports in
  Alcotest.(check bool) "no thread field in single-thread SARIF" false
    (Astring.String.is_infix ~affix:"thread" sarif)

(* A report whose accesses carry a real thread identity round-trips it
   exactly through the JSON codec. *)
let test_threaded_json_round_trip () =
  let thread =
    { Access.tid = 2; tstamp = 3; tview = [ (0, 3); (-1024, 1); (-1026, 3) ] }
  in
  let threaded seq line op lo hi kind =
    Access.make_threaded ~thread
      ~interval:(Interval.make ~lo ~hi)
      ~kind ~issuer:0 ~seq
      ~debug:(Debug_info.make ~file:"hyb.c" ~line ~operation:op)
  in
  let r =
    Report.make ~tool:"contribution" ~space:0 ~win:(Some 0)
      ~existing:(threaded 1 4 "Store" 2 9 Access_kind.Local_write)
      ~incoming:(mk_access ~seq:2 ~line:5 ~op:"MPI_Put" 2 9 Access_kind.Rma_read)
      ~sim_time:1.0 ()
  in
  let json = Race_export.to_json ~generator:"test" [ r ] in
  Alcotest.(check bool) "thread fields present" true
    (Astring.String.is_infix ~affix:"thread_view" (Json.to_string json));
  match Export_io.decode json with
  | Error msg -> Alcotest.failf "round-trip failed: %s" msg
  | Ok [ loaded ] ->
      Alcotest.(check bool) "existing round-trips with thread" true
        (Access.equal r.Report.existing loaded.Report.existing);
      Alcotest.(check bool) "incoming round-trips default thread" true
        (Access.equal r.Report.incoming loaded.Report.incoming);
      Alcotest.(check string) "byte-identical re-export"
        (Json.to_string json)
        (Json.to_string (Race_export.to_json ~generator:"test" [ loaded ]))
  | Ok l -> Alcotest.failf "expected 1 report, got %d" (List.length l)

(* End-to-end golden: the canonical unordered-sibling-store hybrid race
   exported as JSON. GOLDEN_OUT_HYBRID=/abs/path regenerates. *)
let hybrid_race_reports ?predictive () =
  let k =
    match
      Rma_microbench.Scenario.Kernel.find "hyb_lockall_local_tstore_put_unordered_race"
    with
    | Some k -> k
    | None -> Alcotest.fail "hybrid kernel missing"
  in
  let tool =
    Rma_analyzer.create ~nprocs:k.Rma_microbench.Scenario.Kernel.k_nprocs ~mode:Tool.Collect
      ?predictive Rma_analyzer.Contribution
  in
  let v = Rma_microbench.Runner.run_kernel ~interleave_seed:13 ~tool k in
  v.Rma_microbench.Runner.k_reports

let test_hybrid_json_matches_golden () =
  let reports = with_recorder hybrid_race_reports in
  Alcotest.(check bool) "hybrid race found" true (reports <> []);
  let json = Json.to_string (Race_export.to_json ~generator:"test" reports) ^ "\n" in
  Golden_regen.check ~name:"race_hybrid.json" ~what:"hybrid race JSON matches golden file" json

let test_explain_names_thread () =
  let reports = with_recorder hybrid_race_reports in
  let threaded =
    List.filter
      (fun (r : Report.t) ->
        r.Report.existing.Access.thread.Access.tid <> 0
        || r.Report.incoming.Access.thread.Access.tid <> 0)
      reports
  in
  Alcotest.(check bool) "a report involves a spawned thread" true (threaded <> []);
  List.iter
    (fun r ->
      Alcotest.(check bool) "explain mentions the thread" true
        (Astring.String.is_infix ~affix:"thread 1" (Race_export.explain r)))
    threaded

let suite =
  suite
  @ [
      Alcotest.test_case "single-thread exports carry no thread fields" `Quick
        test_single_thread_json_has_no_thread_fields;
      Alcotest.test_case "threaded race JSON round-trips" `Quick test_threaded_json_round_trip;
      Alcotest.test_case "hybrid race JSON matches the golden file" `Quick
        test_hybrid_json_matches_golden;
      Alcotest.test_case "explain names the racing thread" `Quick test_explain_names_thread;
    ]
