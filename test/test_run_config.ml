(* The run configuration ([Rma_config.Run_config]): the environment
   parser rejects every malformed value, the string codec the journal
   and the serve hello share round-trips, and the configuration sweep —
   one in-process pass per setting that used to need its own
   [dune runtest] under RMA_* variables — reproduces the default run's
   verdicts, labels, goldens and trace bytes. *)

open Rma_analysis
open Rma_microbench
module Run_config = Rma_config.Run_config
module Budget = Rma_store.Budget
module Json = Rma_util.Json
module Race_export = Rma_report.Race_export

(* --- environment ----------------------------------------------------- *)

let env_vars =
  [
    "RMA_JOBS";
    "RMA_PREDICTIVE";
    "RMA_INTERLEAVE_SEED";
    "RMA_FAULT";
    "RMA_BUDGET";
    "RMA_OBS_EVENTS";
    "RMA_OBS_LEVEL";
    "RMA_SLO_EPOCH_CLOSE_MS";
  ]

(* Run [f] under [bindings]; every variable is emptied (= unset for
   [of_env]) before and after, so nothing leaks into later tests. *)
let with_env bindings f =
  let clear () = List.iter (fun v -> Unix.putenv v "") env_vars in
  clear ();
  List.iter (fun (k, v) -> Unix.putenv k v) bindings;
  Fun.protect ~finally:clear f

let test_env_values_parse () =
  with_env [] (fun () ->
      Alcotest.(check bool) "an empty environment is the default" true
        (Run_config.of_env () = Ok Run_config.default));
  with_env
    [
      ("RMA_PREDICTIVE", "on");
      ("RMA_INTERLEAVE_SEED", "13");
      ("RMA_BUDGET", "4096:spill");
      ("RMA_OBS_EVENTS", "events.jsonl");
      ("RMA_OBS_LEVEL", "debug");
    ]
    (fun () ->
      match Run_config.of_env () with
      | Error e -> Alcotest.failf "well-formed environment rejected: %s" e
      | Ok r ->
          Alcotest.(check bool) "predictive" true r.Run_config.predictive;
          Alcotest.(check (option int)) "interleave seed" (Some 13) r.Run_config.interleave_seed;
          Alcotest.(check bool) "budget" true
            (r.Run_config.budget = Result.to_option (Budget.of_spec "4096:spill"));
          Alcotest.(check (option string)) "journal" (Some "events.jsonl") r.Run_config.obs_events;
          Alcotest.(check bool) "level" true (r.Run_config.obs_level = Rma_obs.Events.Debug));
  (* The shard count of the removed parallel engine, the fault plan of
     the removed trace-write fault injection and the threshold of the
     removed epoch-close SLO are no settings any more: a leftover
     RMA_JOBS, RMA_FAULT or RMA_SLO_EPOCH_CLOSE_MS, even a malformed
     one, changes nothing. *)
  List.iter
    (fun (var, v) ->
      with_env [ (var, v) ] (fun () ->
          Alcotest.(check bool) (var ^ "=" ^ v ^ " is ignored") true
            (Run_config.of_env () = Ok Run_config.default)))
    [
      ("RMA_JOBS", "4");
      ("RMA_JOBS", "four");
      ("RMA_FAULT", "seed=7,trace_corrupt=0.05");
      ("RMA_FAULT", "seed=1,trace_corrupt=2.0");
      ("RMA_SLO_EPOCH_CLOSE_MS", "250");
      ("RMA_SLO_EPOCH_CLOSE_MS", "-5");
    ]

(* One malformed value per variable: each is an [Error] naming the
   variable — never a silent fallback to the default. RMA_OBS_EVENTS is
   a path, which has no malformed form. *)
let test_env_malformed_rejected () =
  List.iter
    (fun (var, bad) ->
      with_env [ (var, bad) ] (fun () ->
          match Run_config.of_env () with
          | Ok _ -> Alcotest.failf "%s=%S accepted" var bad
          | Error msg ->
              Alcotest.(check bool)
                (Printf.sprintf "%s error names the variable" var)
                true
                (Astring.String.is_infix ~affix:var msg)))
    [
      ("RMA_PREDICTIVE", "2");
      ("RMA_INTERLEAVE_SEED", "thirteen");
      ("RMA_BUDGET", "nodes=0");
      ("RMA_OBS_LEVEL", "loud");
    ]

(* A spec error names at most 64 bytes of the value, then "…" and its
   length, on every layer that quotes it: the run configuration's
   [bad NAME "value"] and the budget reason inside it. *)
let test_long_value_errors_are_bounded () =
  let long = String.make 60_000 'x' in
  List.iter
    (fun (name, value) ->
      match Run_config.of_fields [ (name, value) ] with
      | Ok _ -> Alcotest.failf "%s: accepted a 60 KB value" name
      | Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %d bytes, under 300" name (String.length msg))
            true
            (String.length msg < 300);
          Alcotest.(check bool) (name ^ ": names the length") true
            (Astring.String.is_infix ~affix:(Printf.sprintf "… (%d bytes)" (String.length value)) msg))
    [
      ("budget", "nodes=" ^ long);
      ("budget", "policy=" ^ long);
      ("budget", long ^ "=1");
      ("interleave_seed", long);
    ]

(* --- the string codec ------------------------------------------------ *)

let test_fields_roundtrip () =
  let full =
    {
      Run_config.default with
      Run_config.predictive = true;
      interleave_seed = Some 29;
      budget = Result.to_option (Budget.of_spec "nodes=64,policy=coarsen");
    }
  in
  List.iter
    (fun (name, r) ->
      Alcotest.(check bool) (name ^ " round-trips") true
        (Run_config.of_fields (Run_config.to_fields r) = Ok r))
    [ ("default", Run_config.default); ("full", full) ];
  Alcotest.(check (list string)) "to_fields writes only known keys"
    (List.map fst (Run_config.to_fields full))
    (List.filter (fun k -> List.mem_assoc k (Run_config.to_fields full)) Run_config.keys);
  (* A journal written before a key existed keeps the default for it. *)
  Alcotest.(check bool) "missing keys keep the base" true
    (Run_config.of_fields ~base:full [ ("predictive", "false") ]
    = Ok { full with Run_config.predictive = false });
  Alcotest.(check bool) "unknown keys are ignored" true
    (Run_config.of_fields
       [ ("workload", "cfd"); ("ranks", "8"); ("jobs", "4"); ("fault", "seed=7") ]
    = Ok Run_config.default);
  Alcotest.(check bool) "a malformed value is an error" true
    (Result.is_error (Run_config.of_fields [ ("predictive", "maybe") ]))

(* --- the configuration sweep ----------------------------------------- *)

(* Each axis one CI step used to set through the environment for a
   whole [dune runtest]. *)
let axes =
  let d = Run_config.default in
  [
    ("interleave 13", { d with Run_config.interleave_seed = Some 13 });
    ("interleave 29", { d with Run_config.interleave_seed = Some 29 });
    ("predictive", { d with Run_config.predictive = true });
  ]

let contribution run ~nprocs =
  Rma_report.Harness.make_tool ~run Toolbox.Contribution ~nprocs ~config:Mpi_sim.Config.default

(* What one configured run produces, as comparable strings. *)
type outcome = {
  table3 : string;  (** Table 3 counts, all three tools. *)
  digests : string list;  (** Per-code verdict digests, contribution tool. *)
  hybrid_labels : (string * bool) list;  (** Hybrid kernels whose verdict misses the label. *)
  sarif : string;
  hybrid_json : string;
  explain : string;
  trace : string;
}

let outcome_of run =
  let rows, _ = Rma_report.Experiments.table3 ~run () in
  let table3 =
    String.concat ";"
      (List.map
         (fun (r : Rma_report.Experiments.confusion_row) ->
           Printf.sprintf "%s fp=%d fn=%d tp=%d tn=%d" r.tool r.fp r.fn r.tp r.tn)
         rows)
  in
  let tool = contribution run ~nprocs:3 in
  let digests =
    List.map
      (fun sc ->
        sc.Scenario.name ^ " " ^ Race_export.verdict_digest (Runner.run ~tool sc).Runner.reports)
      Scenario.all
  in
  let hybrid_labels =
    List.filter_map
      (fun k ->
        let tool = contribution run ~nprocs:k.Scenario.Kernel.k_nprocs in
        let v = Runner.run_kernel ?interleave_seed:run.Run_config.interleave_seed ~tool k in
        if Bool.equal v.Runner.k_flagged k.Scenario.Kernel.k_racy then None
        else Some (k.Scenario.Kernel.k_name, v.Runner.k_flagged))
      Scenario.Kernel.hybrid
  in
  let predictive = run.Run_config.predictive in
  let code1 = Test_export.with_recorder (Test_export.code1_race_reports ~predictive) in
  let hybrid = Test_export.with_recorder (Test_export.hybrid_race_reports ~predictive) in
  {
    table3;
    digests;
    hybrid_labels;
    sarif = Export_io.sarif code1;
    hybrid_json = Json.to_string (Race_export.to_json ~generator:"test" hybrid) ^ "\n";
    explain = Race_export.explain (List.hd code1) ^ "\n";
    trace =
      String.concat ""
        (List.map (fun es -> fst (Test_trace.save_and_load es)) (Test_trace.pinned_traces ()));
  }

let test_sweep_reproduces_default () =
  let reference = outcome_of Run_config.default in
  Alcotest.(check (list (pair string bool))) "default: every hybrid kernel keeps its label" []
    reference.hybrid_labels;
  (* The default run is the checked-in goldens (unless they are being
     regenerated, when their own tests write them). *)
  List.iter
    (fun (name, got) ->
      if Golden_regen.hook ~name = None then
        Alcotest.(check string) ("default: " ^ name) (Golden_regen.read ~name) got)
    [
      ("race.sarif", reference.sarif);
      ("race_hybrid.json", reference.hybrid_json);
      ("explain.txt", reference.explain);
      ("trace_kernels.rma", reference.trace);
    ];
  List.iter
    (fun (axis, run) ->
      let o = outcome_of run in
      let check what = Alcotest.(check string) (Printf.sprintf "%s: %s" axis what) in
      check "Table 3 counts" reference.table3 o.table3;
      Alcotest.(check (list string)) (axis ^ ": per-code verdict digests") reference.digests
        o.digests;
      Alcotest.(check (list (pair string bool))) (axis ^ ": hybrid kernel labels") []
        o.hybrid_labels;
      check "SARIF golden" reference.sarif o.sarif;
      check "hybrid JSON golden" reference.hybrid_json o.hybrid_json;
      check "explain golden" reference.explain o.explain;
      check "trace golden" reference.trace o.trace)
    axes

let suite =
  [
    Alcotest.test_case "environment values parse once, jobs ignored" `Quick
      test_env_values_parse;
    Alcotest.test_case "a malformed environment value is an error" `Quick
      test_env_malformed_rejected;
    Alcotest.test_case "to_fields/of_fields round-trip" `Quick test_fields_roundtrip;
    Alcotest.test_case "a 60 KB spec value gives a short error" `Quick
      test_long_value_errors_are_bounded;
    Alcotest.test_case "every configuration axis reproduces the default run" `Quick
      test_sweep_reproduces_default;
  ]
