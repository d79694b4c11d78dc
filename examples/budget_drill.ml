(* Graceful-degradation drill: the CFD-Proxy halo exchange analyzed
   under a shrinking node budget with the Spill_oldest_epoch policy.

   An unbudgeted contribution-policy run is the reference; then the
   same workload re-runs with per-store caps well below the trees'
   natural size. The spill policy evicts completed-epoch nodes oldest
   first, so detection keeps working on a bounded store — the drill
   shows the verdicts staying identical while [degraded_drops] counts
   what governance threw away.

     dune exec examples/budget_drill.exe
     dune exec examples/budget_drill.exe -- --ranks 8 --iterations 30
     dune exec examples/budget_drill.exe -- --obs-events drill.jsonl --obs-level debug
*)

open Rma_analysis
module Table = Rma_util.Text_table
module Diag = Rma_report.Diag

let () =
  let ranks = ref 12 and iterations = ref 20 and cells = ref 64 in
  let diag = ref Diag.default in
  (* The same diagnostics knobs as the CLI subcommands (a subset with
     the journal/telemetry flags spelled out), so a drill run can emit
     an event journal like any rma_race invocation. *)
  let rec parse = function
    | "--ranks" :: v :: rest ->
        ranks := int_of_string v;
        parse rest
    | "--iterations" :: v :: rest ->
        iterations := int_of_string v;
        parse rest
    | "--cells" :: v :: rest ->
        cells := int_of_string v;
        parse rest
    | "--obs-out" :: v :: rest ->
        diag := { !diag with Diag.obs_out = Some v };
        parse rest
    | "--obs-summary" :: rest ->
        diag := { !diag with Diag.obs_summary = true };
        parse rest
    | "--obs-events" :: v :: rest ->
        diag := { !diag with Diag.obs_events = Some v };
        parse rest
    | "--obs-level" :: v :: rest ->
        diag := { !diag with Diag.obs_level = Some v };
        parse rest
    | _ :: rest -> parse rest
    | [] -> ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let nprocs = !ranks in
  Diag.with_diag ~prog:"budget_drill" ~generator:"budget_drill" !diag @@ fun run ->
  let params =
    {
      Cfd_proxy.Halo.default_params with
      Cfd_proxy.Halo.iterations = !iterations;
      cells_per_chunk = !cells;
    }
  in
  let config = { Mpi_sim.Config.default with Mpi_sim.Config.analysis_overhead_scale = 2.0 } in
  Printf.printf
    "Fault drill: CFD-Proxy halo exchange (%d ranks, %d iterations) under node budgets\n\
     (policy Spill_oldest_epoch: evict completed-epoch nodes, oldest sequence first).\n\
     Caps apply per (rank, window) store — %d stores here; the table sums them.\n\n"
    nprocs !iterations (2 * nprocs);
  let budget_of_spec spec =
    match Rma_store.Budget.of_spec spec with
    | Ok b -> b
    | Error msg -> failwith (Printf.sprintf "bad budget spec %S: %s" spec msg)
  in
  let t =
    Table.create
      ~columns:
        [ ("Budget", Table.Left); ("Peak nodes", Table.Right); ("Final nodes", Table.Right);
          ("Degraded drops", Table.Right); ("Reports", Table.Right); ("Checksum OK", Table.Center) ]
      ()
  in
  let reference_checksum = ref None in
  let reference_reports = ref 0 in
  let verdicts_stable = ref true in
  List.iter
    (fun (label, budget) ->
      let tool =
        Rma_analyzer.create ~nprocs ~config ~mode:Tool.Collect
          ~predictive:run.Rma_config.Run_config.predictive ?budget Rma_analyzer.Contribution
      in
      let _result, summary = Cfd_proxy.Halo.run params ~nprocs ~config ~observer:tool.Tool.observer () in
      let checksum = summary.Cfd_proxy.Halo.checksum in
      (match !reference_checksum with
      | None ->
          reference_checksum := Some checksum;
          reference_reports := tool.Tool.race_count ()
      | Some _ -> ());
      let ok =
        match !reference_checksum with
        | Some c -> abs_float (c -. checksum) < 1e-6
        | None -> false
      in
      if tool.Tool.race_count () <> !reference_reports then verdicts_stable := false;
      let s = tool.Tool.bst_summary () in
      Table.add_row t
        [ label; string_of_int s.Tool.nodes_peak_total; string_of_int s.Tool.nodes_final_total;
          string_of_int s.Tool.degraded_drops_total; string_of_int (tool.Tool.race_count ());
          (if ok then "yes" else "NO") ])
    [
      ("unbounded", None);
      ("nodes=64,policy=spill", Some (budget_of_spec "nodes=64,policy=spill"));
      ("nodes=6,policy=spill", Some (budget_of_spec "nodes=6,policy=spill"));
      ("nodes=4,policy=spill", Some (budget_of_spec "nodes=4,policy=spill"));
    ];
  Table.print t;
  Printf.printf
    "\nVerdicts %s across budgets: the halo exchange is race-free and stays so on a\n\
     bounded store, because spilling only forgets completed-epoch intervals that can\n\
     no longer race with the open epoch. A non-zero \"Degraded drops\" column is the\n\
     honesty signal: detection was best-effort, and any race reported from such a\n\
     store carries provenance.degraded = true (SARIF level \"warning\" with a\n\
     confidence: downgraded property). The same caps are available everywhere via\n\
     --budget on the CLI and bench, or RMA_BUDGET in the environment.\n"
    (if !verdicts_stable then "identical" else "DIVERGED");
  []
