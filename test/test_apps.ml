open Rma_analysis

(* Small configurations so the whole suite stays quick. *)

let small_graph =
  {
    Minivite.Graph.n_vertices = 2_000;
    avg_degree = 6;
    locality_window = 50;
    long_range_fraction = 0.1;
    hub_count = 8;
    seed = 7;
  }

let small_minivite =
  { Minivite.Louvain.default_params with Minivite.Louvain.graph = small_graph; iterations = 3 }

let small_cfd =
  {
    Cfd_proxy.Halo.default_params with
    Cfd_proxy.Halo.iterations = 6;
    cells_per_chunk = 5;
    private_loads_per_iteration = 4;
    compute_per_iteration = 1e-4;
  }

(* --- Graph --- *)

let test_partition_covers_everything () =
  let n_global = 1003 and nprocs = 7 in
  let total = ref 0 in
  for rank = 0 to nprocs - 1 do
    let lo, hi = Minivite.Graph.partition ~n_global ~nprocs ~rank in
    total := !total + max 0 (hi - lo + 1);
    for v = lo to hi do
      Alcotest.(check int)
        (Printf.sprintf "owner of %d" v)
        rank
        (Minivite.Graph.owner_of ~n_global ~nprocs v)
    done
  done;
  Alcotest.(check int) "all vertices owned once" n_global !total

let test_graph_deterministic () =
  let a = Minivite.Graph.generate small_graph ~nprocs:4 ~rank:1 in
  let b = Minivite.Graph.generate small_graph ~nprocs:4 ~rank:1 in
  Alcotest.(check bool) "same adjacency" true (a.Minivite.Graph.adjacency = b.Minivite.Graph.adjacency)

let test_graph_no_self_loops () =
  let g = Minivite.Graph.generate small_graph ~nprocs:4 ~rank:2 in
  Array.iteri
    (fun i neigh ->
      let v = g.Minivite.Graph.owned_lo + i in
      Alcotest.(check bool) "no self loop" false (Array.exists (fun u -> u = v) neigh);
      Array.iter
        (fun u -> Alcotest.(check bool) "in range" true (u >= 0 && u < small_graph.Minivite.Graph.n_vertices))
        neigh)
    g.Minivite.Graph.adjacency

let test_ghosts_are_foreign () =
  let g = Minivite.Graph.generate small_graph ~nprocs:4 ~rank:0 in
  Array.iter
    (fun v -> Alcotest.(check bool) "not owned" false (Minivite.Graph.owned g v))
    (Minivite.Graph.ghosts g)

(* --- MiniVite --- *)

let prop_partition_owner_inverse =
  QCheck.Test.make ~name:"partition/owner_of inverse" ~count:200
    QCheck.(pair (int_range 1 10_000) (int_range 1 64))
    (fun (n_global, nprocs) ->
      let ok = ref true in
      for rank = 0 to nprocs - 1 do
        let lo, hi = Minivite.Graph.partition ~n_global ~nprocs ~rank in
        if lo <= hi then begin
          if Minivite.Graph.owner_of ~n_global ~nprocs lo <> rank then ok := false;
          if Minivite.Graph.owner_of ~n_global ~nprocs hi <> rank then ok := false
        end
      done;
      !ok)

let test_minivite_converges () =
  let _, summary = Minivite.Louvain.run small_minivite ~nprocs:4 () in
  Alcotest.(check bool) "modularity positive" true (summary.Minivite.Louvain.modularity > 0.5);
  Alcotest.(check bool) "communities formed" true
    (summary.Minivite.Louvain.communities < small_graph.Minivite.Graph.n_vertices / 2);
  Alcotest.(check bool) "labels moved" true (summary.Minivite.Louvain.total_changes > 0);
  Alcotest.(check bool) "communication happened" true
    (summary.Minivite.Louvain.ghost_fetches > 0 && summary.Minivite.Louvain.update_puts > 0)

let test_minivite_deterministic () =
  let _, a = Minivite.Louvain.run small_minivite ~nprocs:4 ~seed:3 () in
  let _, b = Minivite.Louvain.run small_minivite ~nprocs:4 ~seed:3 () in
  Alcotest.(check bool) "same summary" true (a = b)

let test_minivite_race_free_under_contribution () =
  let tool = Rma_analyzer.create ~nprocs:4 ~mode:Tool.Collect Rma_analyzer.Contribution in
  let _ = Minivite.Louvain.run small_minivite ~nprocs:4 ~observer:tool.Tool.observer () in
  Alcotest.(check int) "no races" 0 (tool.Tool.race_count ())

let test_minivite_race_free_under_legacy () =
  let tool = Rma_analyzer.create ~nprocs:4 ~mode:Tool.Collect Rma_analyzer.Legacy in
  let _ = Minivite.Louvain.run small_minivite ~nprocs:4 ~observer:tool.Tool.observer () in
  Alcotest.(check int) "no false positives on minivite" 0 (tool.Tool.race_count ())

let test_minivite_race_free_under_must () =
  let tool = Must_rma.create ~nprocs:4 () in
  let _ = Minivite.Louvain.run small_minivite ~nprocs:4 ~observer:tool.Tool.observer () in
  Alcotest.(check int) "no races" 0 (tool.Tool.race_count ())

let test_minivite_injected_race_detected () =
  (* Figure 9: the duplicated MPI_Put at dspl.hpp:612/614. *)
  let params = { small_minivite with Minivite.Louvain.inject_race = true } in
  let check_tool name tool =
    let _ = Minivite.Louvain.run params ~nprocs:4 ~observer:tool.Tool.observer () in
    Alcotest.(check bool) (name ^ " flags the duplicate put") true (tool.Tool.race_count () > 0);
    match tool.Tool.races () with
    | [] -> Alcotest.fail "no report"
    | r :: _ ->
        let lines =
          ( r.Report.existing.Rma_access.Access.debug.Rma_access.Debug_info.line,
            r.Report.incoming.Rma_access.Access.debug.Rma_access.Debug_info.line )
        in
        Alcotest.(check bool) "report cites dspl.hpp 612/614" true
          (lines = (612, 614) || lines = (614, 612))
  in
  check_tool "contribution" (Rma_analyzer.create ~nprocs:4 ~mode:Tool.Collect Rma_analyzer.Contribution);
  check_tool "legacy" (Rma_analyzer.create ~nprocs:4 ~mode:Tool.Collect Rma_analyzer.Legacy)

let test_minivite_node_reduction_band () =
  (* Table 4's headline: the contribution's tree is barely smaller than
     legacy's on MiniVite (<10% here; the paper reports 0.04%-6.3%). *)
  let legacy = Rma_analyzer.create ~nprocs:4 ~mode:Tool.Collect Rma_analyzer.Legacy in
  let contribution = Rma_analyzer.create ~nprocs:4 ~mode:Tool.Collect Rma_analyzer.Contribution in
  let _ = Minivite.Louvain.run small_minivite ~nprocs:4 ~observer:legacy.Tool.observer () in
  let _ = Minivite.Louvain.run small_minivite ~nprocs:4 ~observer:contribution.Tool.observer () in
  let nl = (legacy.Tool.bst_summary ()).Tool.nodes_final_total in
  let nc = (contribution.Tool.bst_summary ()).Tool.nodes_final_total in
  Alcotest.(check bool) "contribution not larger" true (nc <= nl);
  Alcotest.(check bool) "reduction below 10%" true
    (float_of_int (nl - nc) /. float_of_int (max 1 nl) < 0.10);
  Alcotest.(check bool) "trees are populated" true (nl > 1_000)

(* --- CFD-Proxy --- *)

let expected_cfd_checksum params ~nprocs =
  (* Every rank receives, per window and per peer, all iteration chunks
     that peer addressed to it; peers are symmetric in the ring. *)
  let open Cfd_proxy.Halo in
  (* Rank [src] puts this value into cell [cell] of iteration [iter]. *)
  let cell_value ~src ~iter ~cell = Int64.of_int ((src * 1_000_000) + (iter * 1_000) + cell) in
  let per_source src =
    let sum = ref 0.0 in
    for iter = 0 to params.iterations - 1 do
      for cell = 0 to params.cells_per_chunk - 1 do
        sum := !sum +. Int64.to_float (cell_value ~src ~iter ~cell)
      done
    done;
    !sum
  in
  let total = ref 0.0 in
  for rank = 0 to nprocs - 1 do
    let peers =
      List.concat_map
        (fun d ->
          if 2 * d >= nprocs then [] else [ (rank + d) mod nprocs; (rank - d + nprocs) mod nprocs ])
        (List.init params.neighbours (fun i -> i + 1))
      |> List.sort_uniq compare
      |> List.filter (fun p -> p <> rank)
    in
    List.iter (fun peer -> total := !total +. (float_of_int params.windows *. per_source peer)) peers
  done;
  !total

let test_cfd_checksum_correct () =
  (* The one-sided exchange really moves the data (deferred application
     included). *)
  let _, summary = Cfd_proxy.Halo.run small_cfd ~nprocs:6 () in
  let expected = expected_cfd_checksum small_cfd ~nprocs:6 in
  Alcotest.(check (float 1e-6)) "checksum" expected summary.Cfd_proxy.Halo.checksum

let test_cfd_checksum_stable_across_seeds () =
  let run seed =
    let _, s = Cfd_proxy.Halo.run small_cfd ~nprocs:6 ~seed () in
    s.Cfd_proxy.Halo.checksum
  in
  Alcotest.(check (float 1e-6)) "seed independent" (run 1) (run 99)

let test_cfd_race_free_under_contribution () =
  let tool = Rma_analyzer.create ~nprocs:6 ~mode:Tool.Collect Rma_analyzer.Contribution in
  let _ = Cfd_proxy.Halo.run small_cfd ~nprocs:6 ~observer:tool.Tool.observer () in
  Alcotest.(check int) "no races" 0 (tool.Tool.race_count ())

let test_cfd_legacy_order_fp () =
  (* Legacy's order-insensitive rule flags every pack-then-put pair — the
     false-positive class the paper's §6 discussion circles around. *)
  let tool = Rma_analyzer.create ~nprocs:6 ~mode:Tool.Collect Rma_analyzer.Legacy in
  let _, summary = Cfd_proxy.Halo.run small_cfd ~nprocs:6 ~observer:tool.Tool.observer () in
  Alcotest.(check int) "one FP per halo put" summary.Cfd_proxy.Halo.halo_puts
    (tool.Tool.race_count ())

let test_cfd_must_race_free () =
  let tool = Must_rma.create ~nprocs:6 () in
  let _ = Cfd_proxy.Halo.run small_cfd ~nprocs:6 ~observer:tool.Tool.observer () in
  Alcotest.(check int) "no races" 0 (tool.Tool.race_count ())

let test_cfd_merging_collapses_tree () =
  (* Figure 10's companion claim: 99.9% node reduction on CFD-Proxy. *)
  let legacy = Rma_analyzer.create ~nprocs:6 ~mode:Tool.Collect Rma_analyzer.Legacy in
  let contribution = Rma_analyzer.create ~nprocs:6 ~mode:Tool.Collect Rma_analyzer.Contribution in
  let _ = Cfd_proxy.Halo.run small_cfd ~nprocs:6 ~observer:legacy.Tool.observer () in
  let _ = Cfd_proxy.Halo.run small_cfd ~nprocs:6 ~observer:contribution.Tool.observer () in
  let nl = (legacy.Tool.bst_summary ()).Tool.nodes_peak_total in
  let nc = (contribution.Tool.bst_summary ()).Tool.nodes_peak_total in
  Alcotest.(check bool) "legacy explodes" true (nl > 1_000);
  Alcotest.(check bool) "contribution stays tiny" true (nc < nl / 10);
  Alcotest.(check bool) "merges happened" true
    ((contribution.Tool.bst_summary ()).Tool.merges_total > 0)

let test_cfd_epoch_times_ordering () =
  (* The Figure 10 ordering: baseline <= contribution <= legacy-ish; the
     detectors add real measured work to the simulated clock. *)
  let epoch_sum observer =
    let config = { Mpi_sim.Config.default with Mpi_sim.Config.analysis_overhead_scale = 5.0 } in
    let result, _ = Cfd_proxy.Halo.run small_cfd ~nprocs:6 ~config ?observer () in
    Array.fold_left ( +. ) 0.0 result.Mpi_sim.Runtime.epoch_times
  in
  let baseline = epoch_sum None in
  let contribution =
    epoch_sum
      (Some (Rma_analyzer.create ~nprocs:6 ~mode:Tool.Collect Rma_analyzer.Contribution).Tool.observer)
  in
  Alcotest.(check bool) "baseline cheapest" true (baseline < contribution)

let suite =
  [
    Alcotest.test_case "partition covers everything" `Quick test_partition_covers_everything;
    Alcotest.test_case "graph generation deterministic" `Quick test_graph_deterministic;
    Alcotest.test_case "graph has no self loops" `Quick test_graph_no_self_loops;
    Alcotest.test_case "ghosts are foreign" `Quick test_ghosts_are_foreign;
    QCheck_alcotest.to_alcotest prop_partition_owner_inverse;
    Alcotest.test_case "minivite converges" `Quick test_minivite_converges;
    Alcotest.test_case "minivite deterministic" `Quick test_minivite_deterministic;
    Alcotest.test_case "minivite race-free (contribution)" `Quick
      test_minivite_race_free_under_contribution;
    Alcotest.test_case "minivite race-free (legacy)" `Quick test_minivite_race_free_under_legacy;
    Alcotest.test_case "minivite race-free (MUST)" `Quick test_minivite_race_free_under_must;
    Alcotest.test_case "minivite injected race detected (Fig 9)" `Quick
      test_minivite_injected_race_detected;
    Alcotest.test_case "minivite node reduction band (Table 4)" `Quick
      test_minivite_node_reduction_band;
    Alcotest.test_case "cfd checksum correct" `Quick test_cfd_checksum_correct;
    Alcotest.test_case "cfd checksum seed-stable" `Quick test_cfd_checksum_stable_across_seeds;
    Alcotest.test_case "cfd race-free (contribution)" `Quick test_cfd_race_free_under_contribution;
    Alcotest.test_case "cfd legacy order FPs" `Quick test_cfd_legacy_order_fp;
    Alcotest.test_case "cfd race-free (MUST)" `Quick test_cfd_must_race_free;
    Alcotest.test_case "cfd merging collapses tree (Fig 10)" `Quick test_cfd_merging_collapses_tree;
    Alcotest.test_case "cfd epoch time ordering" `Quick test_cfd_epoch_times_ordering;
  ]
