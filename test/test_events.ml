open Rma_access
open Rma_store

(* Rma_obs.Events: the structured JSON-lines journal — level filtering,
   the in-memory ring, sink files, golden stability of a budgeted
   run, the Json round-trip of every emitted line and the telemetry
   collector. The HTTP endpoint is tested on the serve daemon's port
   (test_serve.ml). *)

module Obs = Rma_obs.Obs
module Events = Rma_obs.Events
module Telemetry = Rma_obs.Telemetry
module Json = Rma_util.Json
module Budget = Rma_store.Budget

(* Events shares Obs's process-global registry: pin a run id and a clean
   ring for the duration, restore the disabled default after. *)
let with_events ?(level = Events.Info) f =
  Obs.enable ();
  Obs.reset ();
  Events.close ();
  Events.clear ();
  Events.set_level level;
  Fun.protect
    ~finally:(fun () ->
      Events.close ();
      Events.clear ();
      Events.set_level Events.Info;
      Obs.disable ();
      Obs.reset ())
    (fun () -> Events.with_run_id "run-test" f)

(* --- levels ---------------------------------------------------------- *)

(* A level's name as a journal line spells it. *)
let level_name level =
  let ev = { Events.ts = 0.0; level; component = "c"; run_id = "r"; span_id = 0; kv = [] } in
  Option.bind (Json.member "level" (Events.to_json ev)) Json.to_str

let test_levels () =
  List.iter
    (fun l ->
      let name = level_name l in
      Alcotest.(check bool)
        (Option.value name ~default:"?" ^ " round-trips")
        true
        (Option.bind name Events.level_of_string = Some l))
    [ Events.Debug; Events.Info; Events.Warn; Events.Error ];
  Alcotest.(check (option unit)) "unknown level rejected" None
    (Option.map ignore (Events.level_of_string "shout"));
  Alcotest.(check bool) "severity is strictly increasing" true
    (Events.severity Events.Debug < Events.severity Events.Info
    && Events.severity Events.Info < Events.severity Events.Warn
    && Events.severity Events.Warn < Events.severity Events.Error)

(* --- ring + filtering ------------------------------------------------ *)

let test_ring_and_filter () =
  with_events ~level:Events.Warn @@ fun () ->
  Events.emit ~kv:[ ("event", "ignored") ] Events.Info "test";
  Alcotest.(check int) "below-level event dropped" 0 (List.length (Events.recent ()));
  Events.emit ~kv:[ ("event", "kept") ] Events.Warn "test";
  (match Events.recent () with
  | [ ev ] ->
      Alcotest.(check string) "component" "test" ev.Events.component;
      Alcotest.(check string) "run id pinned" "run-test" ev.Events.run_id;
      Alcotest.(check int) "no covering span" 0 ev.Events.span_id;
      Alcotest.(check (list (pair string string))) "kv" [ ("event", "kept") ] ev.Events.kv
  | l -> Alcotest.failf "expected one buffered event, got %d" (List.length l));
  (* The ring keeps the newest 4096 events, oldest first: of the one
     above and 4100 more, events 5..4100. *)
  for i = 1 to 4100 do
    Events.emit ~kv:[ ("i", string_of_int i) ] Events.Warn "test"
  done;
  let kept = List.map (fun ev -> List.assoc "i" ev.Events.kv) (Events.recent ()) in
  Alcotest.(check (list string)) "ring evicts oldest"
    (List.init 4096 (fun i -> string_of_int (i + 5)))
    kept;
  Events.clear ();
  (* Disabled registry: emission is a no-op, not a buffer. *)
  Obs.disable ();
  Events.emit Events.Error "test";
  Alcotest.(check int) "disabled emits nothing" 0 (List.length (Events.recent ()));
  Obs.enable ()

(* --- golden journal from a budgeted run -------------------------------- *)

let disjoint_access ~seq lo hi =
  Access.make
    ~interval:(Interval.make ~lo ~hi)
    ~kind:Access_kind.Rma_read ~issuer:1 ~seq
    ~debug:(Debug_info.make ~file:"events.c" ~line:seq ~operation:"MPI_Get")

(* Every journal line opens with the volatile timestamp; the rest of the
   record is deterministic under a pinned run id and plan seed. *)
let scrub_ts line =
  match String.index_opt line ',' with
  | Some i -> {|{"ts":0|} ^ String.sub line i (String.length line - i)
  | None -> line

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* A store over its node budget: the journal must contain one
   degradation per spilled insert, correlated by the pinned run id, in
   insert order. *)
let journal_of_seeded_run () =
  let path = Filename.temp_file "rma_events" ".jsonl" in
  with_events @@ fun () ->
  Events.with_run_id "run-golden" @@ fun () ->
  Events.set_sink path;
  let budget = { Budget.max_nodes = Some 4; max_bytes = None; policy = Budget.Spill_oldest_epoch } in
  let store = Disjoint_store.create ~budget () in
  List.iteri
    (fun i () -> ignore (Disjoint_store.insert store (disjoint_access ~seq:(i + 1) (i * 10) ((i * 10) + 3))))
    (List.init 8 (fun _ -> ()));
  Events.close ();
  let lines = List.map scrub_ts (read_lines path) in
  Sys.remove path;
  lines

let test_golden_journal () =
  let lines = journal_of_seeded_run () in
  let text = String.concat "\n" lines ^ "\n" in
  (* GOLDEN_OUT_EVENTS=/abs/path (or GOLDEN_OUT_DIR, see
     test/golden_regen.ml) regenerates the golden file instead of
     comparing. *)
  Golden_regen.check ~name:"events_journal.jsonl" ~what:"journal matches the golden file" text

let test_journal_correlation () =
  let lines = journal_of_seeded_run () in
  let events =
    List.map
      (fun l ->
        match Json.of_string l with
        | Ok j -> j
        | Error e -> Alcotest.failf "journal line is not JSON (%s): %s" e l)
      lines
  in
  let kv name j = Option.bind (Json.member "kv" j) (Json.member name) in
  let of_kind k = List.filter (fun j -> kv "event" j = Some (Json.String k)) events in
  let degradations = of_kind "budget_degradation" in
  Alcotest.(check int) "every spilled insert journaled" 4 (List.length degradations);
  (* One run id across the whole journal, and each degradation names
     its policy, its cap and the running drop total. *)
  List.iter
    (fun j ->
      Alcotest.(check (option string)) "run id correlates" (Some "run-golden")
        (Option.bind (Json.member "run_id" j) Json.to_str))
    events;
  List.iteri
    (fun i j ->
      Alcotest.(check bool) "policy and cap named" true
        (kv "policy" j = Some (Json.String "spill_oldest_epoch") && kv "cap" j = Some (Json.String "4"));
      Alcotest.(check bool) "drop total counts up" true
        (kv "total_drops" j = Some (Json.String (string_of_int (i + 1)))))
    degradations

(* --- every line round-trips through Json ----------------------------- *)

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
      let* kv = list_size (int_range 0 4) (pair str_gen str_gen) in
      return { Events.ts = 0.25; level; component; run_id; span_id; kv })

let prop_line_roundtrips =
  QCheck.Test.make ~name:"journal lines round-trip through Rma_util.Json" ~count:500 arb_event
    (fun ev ->
      match Json.of_string (Events.line ev) with
      | Error _ -> false
      | Ok j ->
          let str name = Option.bind (Json.member name j) Json.to_str in
          let int name = Option.bind (Json.member name j) Json.to_int in
          Option.bind (str "level") Events.level_of_string = Some ev.Events.level
          && str "component" = Some ev.Events.component
          && str "run_id" = Some ev.Events.run_id
          && int "span_id" = Some ev.Events.span_id
          && Option.bind (Json.member "kv" j) Json.to_obj
             = Some (List.map (fun (k, v) -> (k, Json.String v)) ev.Events.kv))

(* --- telemetry ------------------------------------------------------- *)

let test_telemetry_collector () =
  with_events @@ fun () ->
  Alcotest.(check bool) "peak RSS is observable" true (Telemetry.peak_rss_bytes () > 0);
  Telemetry.sample ();
  let gauge name =
    match List.find_opt (fun (g : Obs.gauge) -> g.Obs.g_name = name) (Obs.all_gauges ()) with
    | Some g -> g.Obs.g_value
    | None -> Alcotest.failf "gauge %s not registered" name
  in
  Alcotest.(check bool) "telemetry.peak_rss_bytes gauge set" true
    (gauge "telemetry.peak_rss_bytes" > 0.0);
  Alcotest.(check bool) "telemetry.gc_live_words gauge set" true
    (gauge "telemetry.gc_live_words" > 0.0)

(* Diag's export bracket takes the one telemetry sample, so a tool that
   never reaches the analyzer's epoch close (Must-RMA here) still
   exports a real peak RSS. *)
let test_diag_export_samples_telemetry () =
  let prom = Filename.temp_file "rma_telemetry" ".prom" in
  let restore () =
    Events.close ();
    Events.clear ();
    Obs.disable ();
    Obs.reset ();
    try Sys.remove prom with Sys_error _ -> ()
  in
  Fun.protect ~finally:restore @@ fun () ->
  Obs.reset ();
  let scenario = Option.get (Rma_microbench.Scenario.find "ll_get_get_inwindow_origin_race") in
  Rma_report.Diag.with_diag ~prog:"test" ~generator:"test"
    { Rma_report.Diag.default with Rma_report.Diag.obs_prometheus = Some prom }
    (fun _run ->
      let tool = Rma_analysis.Toolbox.make Rma_analysis.Toolbox.Must ~nprocs:3 () in
      (Rma_microbench.Runner.run ~tool scenario).Rma_microbench.Runner.reports);
  let text = In_channel.with_open_bin prom In_channel.input_all in
  let prefix = "rma_telemetry_peak_rss_bytes " in
  let value =
    List.find_map
      (fun line ->
        if String.starts_with ~prefix line then
          float_of_string_opt
            (String.sub line (String.length prefix) (String.length line - String.length prefix))
        else None)
      (String.split_on_char '\n' text)
  in
  match value with
  | None -> Alcotest.fail "no rma_telemetry_peak_rss_bytes sample in the dump"
  | Some v -> Alcotest.(check bool) "peak RSS exported nonzero" true (v > 0.0)

let suite =
  [
    Alcotest.test_case "levels parse and order" `Quick test_levels;
    Alcotest.test_case "ring buffering and level filter" `Quick test_ring_and_filter;
    Alcotest.test_case "seeded fault run matches the golden journal" `Quick test_golden_journal;
    Alcotest.test_case "budget degradations correlate by run id" `Quick
      test_journal_correlation;
    QCheck_alcotest.to_alcotest prop_line_roundtrips;
    Alcotest.test_case "telemetry collector feeds the gauges" `Quick test_telemetry_collector;
    Alcotest.test_case "a Must-RMA run exports its peak RSS" `Quick
      test_diag_export_samples_telemetry;
  ]
