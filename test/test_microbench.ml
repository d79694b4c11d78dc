open Rma_microbench
open Rma_analysis

let legacy () = Rma_analyzer.create ~nprocs:3 ~mode:Tool.Collect Rma_analyzer.Legacy
let contribution () = Rma_analyzer.create ~nprocs:3 ~mode:Tool.Collect Rma_analyzer.Contribution
let must () = Must_rma.create ~nprocs:3 ()

let test_suite_shape () =
  (* §5.2: "The suite contains 154 codes in total and is composed of 47
     codes containing a data race and 107 safe codes." *)
  Alcotest.(check int) "total" 154 Scenario.count_total;
  Alcotest.(check int) "racy" 47 Scenario.count_racy;
  Alcotest.(check int) "safe" 107 Scenario.count_safe

let test_names_unique () =
  let names = List.map (fun s -> s.Scenario.name) Scenario.all in
  Alcotest.(check int) "no duplicate names" (List.length names)
    (List.length (List.sort_uniq String.compare names))

let test_named_codes_exist () =
  (* The four Table 2 codes. *)
  List.iter
    (fun name ->
      Alcotest.(check bool) name true (Scenario.find name <> None))
    [
      "ll_get_load_outwindow_origin_race";
      "ll_get_get_inwindow_origin_safe";
      "ll_get_load_inwindow_origin_race";
      "ll_load_get_inwindow_origin_safe";
    ]

let test_ground_truth_consistent_with_names () =
  List.iter
    (fun s ->
      let expect_racy =
        let n = s.Scenario.name in
        String.length n >= 5 && String.sub n (String.length n - 4) 4 = "race"
      in
      Alcotest.(check bool) s.Scenario.name expect_racy s.Scenario.racy)
    Scenario.all

let test_disjoint_twins_safe () =
  List.iter
    (fun s ->
      if s.Scenario.variant = Scenario.Disjoint then
        Alcotest.(check bool) s.Scenario.name false s.Scenario.racy)
    Scenario.all

let run_one tool name =
  match Scenario.find name with
  | None -> Alcotest.failf "scenario %s not found" name
  | Some s -> Runner.run ~tool s

let test_table2_verdicts () =
  (* Table 2, all twelve cells. *)
  let check tool_name tool name expected =
    let v = run_one tool name in
    Alcotest.(check bool) (Printf.sprintf "%s on %s" tool_name name) expected v.Runner.flagged
  in
  let lg = legacy () and ct = contribution () and mu = must () in
  check "legacy" lg "ll_get_load_outwindow_origin_race" true;
  check "legacy" lg "ll_get_get_inwindow_origin_safe" false;
  check "legacy" lg "ll_get_load_inwindow_origin_race" true;
  check "legacy" lg "ll_load_get_inwindow_origin_safe" true;
  (* false positive *)
  check "must" mu "ll_get_load_outwindow_origin_race" true;
  check "must" mu "ll_get_get_inwindow_origin_safe" false;
  check "must" mu "ll_get_load_inwindow_origin_race" false;
  (* stack-array false negative *)
  check "must" mu "ll_load_get_inwindow_origin_safe" false;
  check "contribution" ct "ll_get_load_outwindow_origin_race" true;
  check "contribution" ct "ll_get_get_inwindow_origin_safe" false;
  check "contribution" ct "ll_get_load_inwindow_origin_race" true;
  check "contribution" ct "ll_load_get_inwindow_origin_safe" false

let test_table3_legacy () =
  let c = Runner.score ~tool:(legacy ()) Scenario.all in
  (* The paper's Table 3 prints TP=41/TN=107 alongside FP=6/FN=0, which
     cannot all hold over 47 racy + 107 safe codes; we pin the
     self-consistent version of its narrative: the six order-sensitivity
     false positives land on safe codes (cf. Table 2's
     ll_load_get_inwindow_origin_safe) and no race is missed. *)
  Alcotest.(check int) "FP" 6 c.Runner.fp;
  Alcotest.(check int) "FN" 0 c.Runner.fn;
  Alcotest.(check int) "TP" 47 c.Runner.tp;
  Alcotest.(check int) "TN" 101 c.Runner.tn

let test_table3_must () =
  let c = Runner.score ~tool:(must ()) Scenario.all in
  Alcotest.(check int) "FP" 0 c.Runner.fp;
  Alcotest.(check int) "FN" 15 c.Runner.fn;
  Alcotest.(check int) "TP" 32 c.Runner.tp;
  Alcotest.(check int) "TN" 107 c.Runner.tn

let test_table3_contribution () =
  let c = Runner.score ~tool:(contribution ()) Scenario.all in
  Alcotest.(check int) "FP" 0 c.Runner.fp;
  Alcotest.(check int) "FN" 0 c.Runner.fn;
  Alcotest.(check int) "TP" 47 c.Runner.tp;
  Alcotest.(check int) "TN" 107 c.Runner.tn

let test_legacy_fps_are_the_order_sensitivity_codes () =
  let tool = legacy () in
  let flagged_safe =
    List.filter
      (fun s -> (not s.Scenario.racy) && (Runner.run ~tool s).Runner.flagged)
      Scenario.all
  in
  let expected =
    List.sort String.compare
      (List.map (fun s -> s.Scenario.name) Scenario.expected_legacy_false_positives)
  in
  Alcotest.(check (list string)) "exact FP set" expected
    (List.sort String.compare (List.map (fun s -> s.Scenario.name) flagged_safe))

let test_must_fns_are_the_stack_codes () =
  let tool = must () in
  let missed =
    List.filter
      (fun s -> s.Scenario.racy && not (Runner.run ~tool s).Runner.flagged)
      Scenario.all
  in
  (* The fifteen racy codes whose conflicting local access touches
     stack storage, which ThreadSanitizer cannot instrument. *)
  let stack_racy (s : Scenario.t) =
    s.Scenario.racy && s.Scenario.stack_shared
    && (s.Scenario.first_role = Scenario.As_local || s.Scenario.second_role = Scenario.As_local)
  in
  let expected =
    List.sort String.compare
      (List.map (fun s -> s.Scenario.name) (List.filter stack_racy Scenario.all))
  in
  Alcotest.(check int) "fifteen stack codes" 15 (List.length expected);
  Alcotest.(check (list string)) "exact FN set" expected
    (List.sort String.compare (List.map (fun s -> s.Scenario.name) missed))

let test_verdicts_stable_across_seeds () =
  (* Cross-process conflicts are direction-independent, so the verdict
     must not depend on the scheduler interleaving. Spot-check a sample
     of scenarios across several seeds. *)
  let tool = contribution () in
  let sample = List.filteri (fun i _ -> i mod 13 = 0) Scenario.all in
  List.iter
    (fun s ->
      let verdicts = List.map (fun seed -> (Runner.run ~seed ~tool s).Runner.flagged) [ 1; 7; 23 ] in
      Alcotest.(check bool) s.Scenario.name true
        (List.for_all (fun v -> v = List.hd verdicts) verdicts))
    sample

let test_report_locations_point_at_scenario_source () =
  let tool = contribution () in
  let v = run_one tool "ll_get_load_outwindow_origin_race" in
  match v.Runner.reports with
  | [] -> Alcotest.fail "expected a report"
  | r :: _ ->
      let file = r.Report.incoming.Rma_access.Access.debug.Rma_access.Debug_info.file in
      Alcotest.(check string) "file name from scenario" "ll_get_load_outwindow_origin_race.c" file

let suite =
  [
    Alcotest.test_case "suite shape 154/47/107" `Quick test_suite_shape;
    Alcotest.test_case "scenario names unique" `Quick test_names_unique;
    Alcotest.test_case "Table 2 codes exist" `Quick test_named_codes_exist;
    Alcotest.test_case "names encode ground truth" `Quick test_ground_truth_consistent_with_names;
    Alcotest.test_case "disjoint twins are safe" `Quick test_disjoint_twins_safe;
    Alcotest.test_case "Table 2 verdicts" `Quick test_table2_verdicts;
    Alcotest.test_case "Table 3: legacy row" `Slow test_table3_legacy;
    Alcotest.test_case "Table 3: MUST-RMA row" `Slow test_table3_must;
    Alcotest.test_case "Table 3: contribution row" `Slow test_table3_contribution;
    Alcotest.test_case "legacy FPs are the order-sensitivity codes" `Slow
      test_legacy_fps_are_the_order_sensitivity_codes;
    Alcotest.test_case "MUST FNs are the stack codes" `Slow test_must_fns_are_the_stack_codes;
    Alcotest.test_case "verdicts stable across seeds" `Quick test_verdicts_stable_across_seeds;
    Alcotest.test_case "reports point at scenario source" `Quick
      test_report_locations_point_at_scenario_source;
  ]

let test_c_source_emission () =
  (* Every scenario renders to a plausible C translation unit. *)
  List.iter
    (fun s ->
      let src = C_source.emit s in
      let contains sub =
        let n = String.length src and m = String.length sub in
        let rec go i = i + m <= n && (String.sub src i m = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) (s.Scenario.name ^ " has main") true (contains "int main");
      Alcotest.(check bool) (s.Scenario.name ^ " has epoch") true
        (contains "MPI_Win_lock_all" && contains "MPI_Win_unlock_all");
      Alcotest.(check bool)
        (s.Scenario.name ^ " ground truth in header")
        true
        (contains (if s.Scenario.racy then "DATA RACE" else "safe"));
      let has_rma = contains "MPI_Put" || contains "MPI_Get" in
      Alcotest.(check bool) (s.Scenario.name ^ " has an RMA op") true has_rma)
    Scenario.all

let test_c_source_stack_marker () =
  match Scenario.find "ll_get_load_inwindow_origin_race" with
  | None -> Alcotest.fail "missing scenario"
  | Some s ->
      let src = C_source.emit s in
      let contains sub =
        let n = String.length src and m = String.length sub in
        let rec go i = i + m <= n && (String.sub src i m = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "stack window array" true
        (contains "int win_mem[16]")

let suite =
  suite
  @ [
      Alcotest.test_case "C source emission" `Quick test_c_source_emission;
      Alcotest.test_case "C source stack marker" `Quick test_c_source_stack_marker;
    ]

(* --- RMARaceBench-shaped kernel corpus (ISSUE 3) --- *)

let kernel_tool ~nprocs () = Rma_analyzer.create ~nprocs ~mode:Tool.Collect Rma_analyzer.Contribution

let test_kernel_corpus_shape () =
  let kernels = Scenario.Kernel.all in
  Alcotest.(check bool) "at least 10 kernels" true (List.length kernels >= 10);
  let names = List.map (fun k -> k.Scenario.Kernel.k_name) kernels in
  Alcotest.(check int) "kernel names unique"
    (List.length names)
    (List.length (List.sort_uniq String.compare names));
  let has pred = List.exists pred kernels in
  let open Scenario.Kernel in
  Alcotest.(check bool) "has racy kernels" true (has (fun k -> k.k_racy));
  Alcotest.(check bool) "has safe kernels" true (has (fun k -> not k.k_racy));
  Alcotest.(check bool) "has fence sync" true (has (fun k -> k.k_sync = Fence));
  Alcotest.(check bool) "has lock sync" true (has (fun k -> k.k_sync = Lock_all));
  Alcotest.(check bool) "has flush sync" true (has (fun k -> k.k_sync = Flush_only));
  Alcotest.(check bool) "has remote conflicts" true (has (fun k -> k.k_locality = Remote));
  Alcotest.(check bool) "has local-buffer conflicts" true
    (has (fun k -> k.k_locality = Local_buffer))

(* The table-driven label check: the analyzer must reproduce every
   ground-truth verdict, and flag a kernel exactly when it reports. *)
let test_kernel_labels () =
  List.iter
    (fun (k : Scenario.Kernel.t) ->
      let v = Runner.run_kernel ~tool:(kernel_tool ~nprocs:k.k_nprocs ()) k in
      Alcotest.(check bool) k.k_name k.k_racy v.Runner.k_flagged;
      Alcotest.(check bool) (k.k_name ^ " reports iff flagged") v.Runner.k_flagged
        (v.Runner.k_reports <> []))
    Scenario.Kernel.all

let test_kernel_verdicts_stable_across_seeds () =
  List.iter
    (fun (k : Scenario.Kernel.t) ->
      List.iter
        (fun seed ->
          let tool = kernel_tool ~nprocs:k.k_nprocs () in
          let v = Runner.run_kernel ~seed ~tool k in
          Alcotest.(check bool)
            (Printf.sprintf "%s seed %d" k.k_name seed)
            k.k_racy v.Runner.k_flagged)
        [ 1; 7; 42 ])
    Scenario.Kernel.all

let suite =
  suite
  @ [
      Alcotest.test_case "kernel corpus shape" `Quick test_kernel_corpus_shape;
      Alcotest.test_case "kernel labels" `Quick test_kernel_labels;
      Alcotest.test_case "kernel verdicts stable across seeds" `Slow
        test_kernel_verdicts_stable_across_seeds;
    ]

(* --- Hybrid MPI+threads kernels (PR 8) --- *)

let hybrid_tool ~nprocs () = Rma_analyzer.create ~nprocs ~mode:Tool.Collect Rma_analyzer.Contribution

let test_hybrid_corpus_shape () =
  let kernels = Scenario.Kernel.hybrid in
  Alcotest.(check bool) "at least 12 hybrid kernels" true (List.length kernels >= 12);
  let names = List.map (fun k -> k.Scenario.Kernel.k_name) kernels in
  Alcotest.(check int) "hybrid names unique" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " has hyb_ prefix") true
        (String.length n > 4 && String.sub n 0 4 = "hyb_");
      Alcotest.(check bool) (n ^ " findable") true (Scenario.Kernel.find n <> None))
    names;
  let open Scenario.Kernel in
  let has pred = List.exists pred kernels in
  Alcotest.(check bool) "has racy hybrid kernels" true (has (fun k -> k.k_racy));
  Alcotest.(check bool) "has safe hybrid kernels" true (has (fun k -> not k.k_racy));
  Alcotest.(check bool) "has fence sync" true (has (fun k -> k.k_sync = Fence));
  Alcotest.(check bool) "has lock_all sync" true (has (fun k -> k.k_sync = Lock_all));
  Alcotest.(check bool) "has local-buffer conflicts" true
    (has (fun k -> k.k_locality = Local_buffer))

let test_hybrid_kernels_spawn_threads () =
  (* Every hybrid kernel genuinely exercises the thread layer. *)
  List.iter
    (fun (k : Scenario.Kernel.t) ->
      let r =
        Mpi_sim.Runtime.run ~nprocs:k.Scenario.Kernel.k_nprocs ~seed:11
          k.Scenario.Kernel.k_program
      in
      Alcotest.(check bool)
        (k.Scenario.Kernel.k_name ^ " spawns a thread")
        true
        (r.Mpi_sim.Runtime.threads_spawned > 0))
    Scenario.Kernel.hybrid

(* The table-driven hybrid label check: ground truth must hold for each
   CI interleaving seed. *)
let test_hybrid_labels () =
  List.iter
    (fun (k : Scenario.Kernel.t) ->
      List.iter
        (fun interleave_seed ->
          let tool = hybrid_tool ~nprocs:k.Scenario.Kernel.k_nprocs () in
          let v = Runner.run_kernel ?interleave_seed ~tool k in
          Alcotest.(check bool)
            (Printf.sprintf "%s (interleave=%s)" k.Scenario.Kernel.k_name
               (match interleave_seed with None -> "-" | Some i -> string_of_int i))
            k.Scenario.Kernel.k_racy v.Runner.k_flagged)
        [ None; Some 13; Some 29 ])
    Scenario.Kernel.hybrid

let test_hybrid_race_reports_name_threads () =
  (* A hybrid race whose incoming side is a spawned thread's access must
     say so in the export pipeline's inputs. *)
  match Scenario.Kernel.find "hyb_lockall_local_tstore_put_unordered_race" with
  | None -> Alcotest.fail "missing hybrid kernel"
  | Some k ->
      let tool = hybrid_tool ~nprocs:k.Scenario.Kernel.k_nprocs () in
      let v = Runner.run_kernel ~tool k in
      Alcotest.(check bool) "flagged" true v.Runner.k_flagged;
      let names_thread (r : Report.t) =
        r.Report.existing.Rma_access.Access.thread.Rma_access.Access.tid <> 0
        || r.Report.incoming.Rma_access.Access.thread.Rma_access.Access.tid <> 0
      in
      Alcotest.(check bool) "some report carries a nonzero thread id" true
        (List.exists names_thread v.Runner.k_reports);
      List.iter
        (fun (r : Report.t) ->
          if names_thread r
             && r.Report.existing.Rma_access.Access.issuer
                = r.Report.incoming.Rma_access.Access.issuer
          then begin
            let cell = Report.matrix_cell r in
            let suffix = "(same process, different threads)" in
            let n = String.length cell and m = String.length suffix in
            Alcotest.(check bool)
              (Printf.sprintf "matrix cell %S names the threads" cell)
              true
              (n >= m && String.sub cell (n - m) m = suffix)
          end)
        v.Runner.k_reports

let suite =
  suite
  @ [
      Alcotest.test_case "hybrid corpus shape" `Quick test_hybrid_corpus_shape;
      Alcotest.test_case "hybrid kernels spawn threads" `Quick test_hybrid_kernels_spawn_threads;
      Alcotest.test_case "hybrid labels per interleave seed" `Slow test_hybrid_labels;
      Alcotest.test_case "hybrid race reports name threads" `Quick
        test_hybrid_race_reports_name_threads;
    ]
