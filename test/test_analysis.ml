open Mpi_sim
open Rma_analysis

(* Run [program] under [tool] (Collect mode recommended) and return the
   reported races. *)
let run_with ?(nprocs = 2) ?(seed = 3) tool program =
  tool.Tool.reset ();
  let config = { Config.default with Config.analysis_overhead_scale = 0.0 } in
  (try ignore (Runtime.run ~nprocs ~seed ~config ~observer:tool.Tool.observer program)
   with Report.Race_abort _ -> ());
  tool.Tool.races ()

let contribution ?(mode = Tool.Collect) ~nprocs () =
  Rma_analyzer.create ~nprocs ~mode Rma_analyzer.Contribution

let legacy ?(mode = Tool.Collect) ~nprocs () = Rma_analyzer.create ~nprocs ~mode Rma_analyzer.Legacy

let must ~nprocs () = Must_rma.create ~nprocs ()

let l file line op = Mpi.loc ~file ~line op

(* --- Programs --- *)

(* Figure 2a: MPI_Get followed by a Load of the origin buffer. *)
let get_then_load ~storage () =
  let rank = Mpi.comm_rank () in
  let base = Mpi.alloc ~exposed:true ~label:"X" 8 in
  let win = Mpi.win_create ~base ~size:8 in
  Mpi.win_lock_all win;
  if rank = 0 then begin
    let buf = Mpi.alloc ~storage ~exposed:true ~label:"buf" 8 in
    Mpi.get win ~loc:(l "fig2a.c" 10 "MPI_Get") ~target:1 ~target_disp:0 ~origin_addr:buf ~len:8;
    ignore (Mpi.load ~loc:(l "fig2a.c" 11 "Load") ~addr:buf ~len:8 ())
  end;
  Mpi.win_unlock_all win;
  Mpi.win_free win

(* The safe converse: Load then MPI_Get (ll_load_get_inwindow_origin_safe). *)
let load_then_get () =
  let rank = Mpi.comm_rank () in
  let base = Mpi.alloc ~exposed:true 8 in
  let win = Mpi.win_create ~base ~size:8 in
  Mpi.win_lock_all win;
  if rank = 0 then begin
    ignore (Mpi.load ~loc:(l "safe.c" 10 "Load") ~addr:base ~len:8 ());
    Mpi.get win ~loc:(l "safe.c" 11 "MPI_Get") ~target:1 ~target_disp:0 ~origin_addr:base ~len:8
  end;
  Mpi.win_unlock_all win;
  Mpi.win_free win

(* Figure 9 / Code 3: the same MPI_Put issued twice. *)
let duplicated_put () =
  let rank = Mpi.comm_rank () in
  let base = Mpi.alloc ~exposed:true 64 in
  let win = Mpi.win_create ~base ~size:64 in
  Mpi.win_lock_all win;
  if rank = 0 then begin
    let src = Mpi.alloc ~exposed:true 8 in
    Mpi.put win ~loc:(l "dspl.hpp" 612 "MPI_Put") ~target:1 ~target_disp:0 ~origin_addr:src ~len:8;
    Mpi.put win ~loc:(l "dspl.hpp" 614 "MPI_Put") ~target:1 ~target_disp:0 ~origin_addr:src ~len:8
  end;
  Mpi.win_unlock_all win;
  Mpi.win_free win

(* Two epochs, each putting to the same target location: safe, because
   unlock_all completes the first put before the second epoch begins. *)
let two_epochs () =
  let rank = Mpi.comm_rank () in
  let base = Mpi.alloc ~exposed:true 8 in
  let win = Mpi.win_create ~base ~size:8 in
  for _i = 1 to 2 do
    Mpi.win_lock_all win;
    if rank = 0 then begin
      let src = Mpi.alloc ~exposed:true 8 in
      Mpi.put win ~loc:(l "loop.c" 5 "MPI_Put") ~target:1 ~target_disp:0 ~origin_addr:src ~len:8
    end;
    Mpi.win_unlock_all win;
    Mpi.barrier ()
  done;
  Mpi.win_free win

(* Same but with only a flush_all + barrier between the puts: really
   synchronised, yet the tools do not instrument flush (§6(2)). *)
let flush_between_puts () =
  let rank = Mpi.comm_rank () in
  let base = Mpi.alloc ~exposed:true 8 in
  let win = Mpi.win_create ~base ~size:8 in
  Mpi.win_lock_all win;
  if rank = 0 then begin
    let src = Mpi.alloc ~exposed:true 8 in
    Mpi.put win ~loc:(l "flush.c" 5 "MPI_Put") ~target:1 ~target_disp:0 ~origin_addr:src ~len:8;
    Mpi.win_flush_all win
  end;
  Mpi.barrier ();
  if rank = 0 then begin
    let src2 = Mpi.alloc ~exposed:true 8 in
    Mpi.put win ~loc:(l "flush.c" 9 "MPI_Put") ~target:1 ~target_disp:0 ~origin_addr:src2 ~len:8
  end;
  Mpi.win_unlock_all win;
  Mpi.win_free win

(* Remote put racing with the target's own load of its window. *)
let put_vs_target_load () =
  let rank = Mpi.comm_rank () in
  let base = Mpi.alloc ~exposed:true 8 in
  let win = Mpi.win_create ~base ~size:8 in
  Mpi.win_lock_all win;
  if rank = 0 then begin
    let src = Mpi.alloc ~exposed:true 8 in
    Mpi.put win ~loc:(l "pvl.c" 5 "MPI_Put") ~target:1 ~target_disp:0 ~origin_addr:src ~len:8
  end
  else ignore (Mpi.load ~loc:(l "pvl.c" 8 "Load") ~addr:base ~len:8 ());
  Mpi.win_unlock_all win;
  Mpi.win_free win

(* Target reads its window only after the origin unlocked and a barrier
   synchronised: race-free, and MUST must agree thanks to clock merging. *)
let put_then_synced_load () =
  let rank = Mpi.comm_rank () in
  let base = Mpi.alloc ~exposed:true 8 in
  let win = Mpi.win_create ~base ~size:8 in
  Mpi.win_lock_all win;
  if rank = 0 then begin
    let src = Mpi.alloc ~exposed:true 8 in
    Mpi.put win ~loc:(l "sync.c" 5 "MPI_Put") ~target:1 ~target_disp:0 ~origin_addr:src ~len:8
  end;
  Mpi.win_unlock_all win;
  Mpi.barrier ();
  if rank = 1 then ignore (Mpi.load ~loc:(l "sync.c" 9 "Load") ~addr:base ~len:8 ());
  Mpi.win_free win

(* --- Tests --- *)

let count = List.length

let test_contribution_detects_get_load () =
  let races = run_with (contribution ~nprocs:2 ()) (get_then_load ~storage:Memory.Heap) in
  Alcotest.(check bool) "flagged" true (count races >= 1);
  Alcotest.(check bool) "points at the Get" true
    (List.exists
       (fun (r : Report.t) ->
         List.exists
           (fun (a : Rma_access.Access.t) ->
             a.Rma_access.Access.debug.Rma_access.Debug_info.operation = "MPI_Get")
           [ r.Report.existing; r.Report.incoming ])
       races)

let test_legacy_detects_get_load () =
  let races = run_with (legacy ~nprocs:2 ()) (get_then_load ~storage:Memory.Heap) in
  Alcotest.(check bool) "flagged" true (count races >= 1)

let test_must_detects_get_load_heap () =
  let races = run_with (must ~nprocs:2 ()) (get_then_load ~storage:Memory.Heap) in
  Alcotest.(check bool) "flagged" true (count races >= 1)

let test_must_misses_get_load_stack () =
  (* ll_get_load_inwindow_origin_race with a stack array: the Table 2
     MUST-RMA false negative. *)
  let races = run_with (must ~nprocs:2 ()) (get_then_load ~storage:Memory.Stack) in
  Alcotest.(check int) "missed" 0 (count races)

let test_contribution_safe_on_load_get () =
  Alcotest.(check int) "no race" 0 (count (run_with (contribution ~nprocs:2 ()) load_then_get))

let test_legacy_fp_on_load_get () =
  (* The published order-insensitivity false positive (Table 2, row
     ll_load_get_inwindow_origin_safe). *)
  Alcotest.(check bool) "legacy flags the safe code" true
    (count (run_with (legacy ~nprocs:2 ()) load_then_get) >= 1)

let test_must_safe_on_load_get () =
  Alcotest.(check int) "must agrees it is safe" 0
    (count (run_with (must ~nprocs:2 ()) load_then_get))

let test_duplicated_put_detected () =
  let races = run_with (contribution ~nprocs:2 ()) duplicated_put in
  Alcotest.(check bool) "flagged" true (count races >= 1);
  let r = List.hd races in
  Alcotest.(check int) "conflict in the target's space" 1 r.Report.space;
  let msg = Report.to_message r in
  Alcotest.(check bool) "figure 9b wording" true
    (String.length msg > 0
    && String.sub msg 0 42 = "Error when inserting memory access of type");
  Alcotest.(check bool) "names both source lines" true
    (let has sub =
       let n = String.length msg and m = String.length sub in
       let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
       go 0
     in
     has "dspl.hpp:612" && has "dspl.hpp:614")

let test_duplicated_put_detected_by_must () =
  Alcotest.(check bool) "must flags it" true
    (count (run_with (must ~nprocs:2 ()) duplicated_put) >= 1)

let test_epoch_boundary_clears () =
  Alcotest.(check int) "two epochs are safe" 0
    (count (run_with (contribution ~nprocs:2 ()) two_epochs))

let test_flush_not_synchronising () =
  (* Pinned conservative behaviour (§6(2)): flush_all+barrier really
     synchronises the program, but no tool instruments flush, so the
     second put is still reported. *)
  Alcotest.(check bool) "contribution still flags across flush" true
    (count (run_with (contribution ~nprocs:2 ()) flush_between_puts) >= 1)

let test_put_vs_target_load () =
  Alcotest.(check bool) "contribution flags put vs target load" true
    (count (run_with (contribution ~nprocs:2 ()) put_vs_target_load) >= 1);
  Alcotest.(check bool) "must flags it too" true
    (count (run_with (must ~nprocs:2 ()) put_vs_target_load) >= 1)

let test_synced_load_is_safe () =
  Alcotest.(check int) "contribution: safe" 0
    (count (run_with (contribution ~nprocs:2 ()) put_then_synced_load));
  Alcotest.(check int) "must: safe thanks to clock merge" 0
    (count (run_with (must ~nprocs:2 ()) put_then_synced_load))

let test_abort_mode_raises () =
  let tool = contribution ~mode:Tool.Abort_on_race ~nprocs:2 () in
  let raised =
    try
      ignore
        (Runtime.run ~nprocs:2 ~seed:3
           ~config:{ Config.default with Config.analysis_overhead_scale = 0.0 }
           ~observer:tool.Tool.observer duplicated_put);
      false
    with Report.Race_abort _ -> true
  in
  Alcotest.(check bool) "abort raised" true raised

let test_bst_summary_populated () =
  let tool = contribution ~nprocs:2 () in
  let _ = run_with tool two_epochs in
  let summary = tool.Tool.bst_summary () in
  Alcotest.(check bool) "stores created" true (summary.Tool.stores >= 2);
  Alcotest.(check bool) "inserts recorded" true (summary.Tool.inserts_total > 0)

let test_alias_filter_skips_private_locals () =
  (* A local access to a non-exposed buffer inside an epoch must not be
     inserted into the analyzer's trees. *)
  let tool = contribution ~nprocs:1 () in
  let _ =
    run_with ~nprocs:1 tool (fun () ->
        let private_buf = Mpi.alloc 8 in
        let base = Mpi.alloc ~exposed:true 8 in
        let win = Mpi.win_create ~base ~size:8 in
        Mpi.win_lock_all win;
        Mpi.store_i64 ~addr:private_buf 1L;
        Mpi.win_unlock_all win;
        Mpi.win_free win)
  in
  let summary = tool.Tool.bst_summary () in
  Alcotest.(check int) "nothing inserted" 0 summary.Tool.inserts_total

let test_reset_clears_state () =
  let tool = contribution ~nprocs:2 () in
  let races = run_with tool duplicated_put in
  Alcotest.(check bool) "had races" true (count races >= 1);
  tool.Tool.reset ();
  Alcotest.(check int) "reset forgets" 0 (count (tool.Tool.races ()))

let suite =
  [
    Alcotest.test_case "contribution detects Get-Load (Fig 2a)" `Quick
      test_contribution_detects_get_load;
    Alcotest.test_case "legacy detects Get-Load" `Quick test_legacy_detects_get_load;
    Alcotest.test_case "MUST detects Get-Load on heap" `Quick test_must_detects_get_load_heap;
    Alcotest.test_case "MUST misses Get-Load on stack (Table 2 FN)" `Quick
      test_must_misses_get_load_stack;
    Alcotest.test_case "contribution safe on Load-Get" `Quick test_contribution_safe_on_load_get;
    Alcotest.test_case "legacy FP on Load-Get (Table 2)" `Quick test_legacy_fp_on_load_get;
    Alcotest.test_case "MUST safe on Load-Get" `Quick test_must_safe_on_load_get;
    Alcotest.test_case "duplicated put detected + Fig 9b report" `Quick test_duplicated_put_detected;
    Alcotest.test_case "duplicated put detected by MUST" `Quick test_duplicated_put_detected_by_must;
    Alcotest.test_case "epoch boundary clears the trees" `Quick test_epoch_boundary_clears;
    Alcotest.test_case "flush is not synchronising (pinned, §6)" `Quick test_flush_not_synchronising;
    Alcotest.test_case "put vs target load" `Quick test_put_vs_target_load;
    Alcotest.test_case "post-unlock synced load is safe" `Quick test_synced_load_is_safe;
    Alcotest.test_case "abort mode raises Race_abort" `Quick test_abort_mode_raises;
    Alcotest.test_case "bst summary populated" `Quick test_bst_summary_populated;
    Alcotest.test_case "alias filter skips private locals" `Quick
      test_alias_filter_skips_private_locals;
    Alcotest.test_case "reset clears state" `Quick test_reset_clears_state;
  ]

let test_flush_clearing_causes_false_negative () =
  (* §6(2): "simply cleaning the BST of the process calling
     MPI_Win_flush may lead to false negatives". Origin 1 puts and
     flushes; the flush only orders origin 1's operations, so origin 2's
     overlapping put still races — which the flush-clearing variant
     misses because origin 1's notification was wiped from the target's
     tree... here modelled on the target tree keyed by the caller. *)
  let program () =
    let rank = Mpi.comm_rank () in
    let base = Mpi.alloc ~exposed:true 8 in
    let win = Mpi.win_create ~base ~size:8 in
    Mpi.win_lock_all win;
    if rank = 1 then begin
      let src = Mpi.alloc ~exposed:true 8 in
      Mpi.put win ~loc:(Mpi.loc ~file:"flushfn.c" ~line:10 "MPI_Put") ~target:0 ~target_disp:0
        ~origin_addr:src ~len:8
    end;
    Mpi.barrier ();
    (* The target flushes its own window — clearing its tree in the
       broken variant. *)
    if rank = 0 then Mpi.win_flush_all win;
    Mpi.barrier ();
    if rank = 2 then begin
      let src = Mpi.alloc ~exposed:true 8 in
      Mpi.put win ~loc:(Mpi.loc ~file:"flushfn.c" ~line:20 "MPI_Put") ~target:0 ~target_disp:0
        ~origin_addr:src ~len:8
    end;
    Mpi.win_unlock_all win;
    Mpi.win_free win
  in
  let races ~flush_clears =
    (* Pinned observed-only: the ablation is about the OBSERVED trees.
       (Predictive mode would rightly predict this very race — the weak
       trees don't clear on flush — which is the feature, not the FN
       this test demonstrates.) *)
    let tool =
      Rma_analyzer.create ~nprocs:3 ~mode:Tool.Collect ~flush_clears ~predictive:false
        Rma_analyzer.Contribution
    in
    (try
       ignore
         (Runtime.run ~nprocs:3 ~seed:3
            ~config:{ Config.default with Config.analysis_overhead_scale = 0.0 }
            ~observer:tool.Tool.observer program)
     with Report.Race_abort _ -> ());
    tool.Tool.race_count ()
  in
  Alcotest.(check bool) "correct tool reports the put/put race" true (races ~flush_clears:false > 0);
  Alcotest.(check int) "flush-clearing variant misses it (the §6(2) FN)" 0
    (races ~flush_clears:true)

let suite =
  suite
  @ [
      Alcotest.test_case "flush-clearing causes false negatives (§6(2) ablation)" `Quick
        test_flush_clearing_causes_false_negative;
    ]

let test_toolbox_registry () =
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Toolbox.slug k ^ " roundtrips")
        true
        (Toolbox.of_slug (Toolbox.slug k) = Some k);
      let tool = Toolbox.make k ~nprocs:2 () in
      Alcotest.(check bool) "has a name" true (String.length tool.Tool.name > 0))
    Toolbox.all;
  Alcotest.(check bool) "unknown slug" true (Toolbox.of_slug "nonsense" = None);
  Alcotest.(check string) "display name" "Our Contribution" (Toolbox.name Toolbox.Contribution)

let suite =
  suite @ [ Alcotest.test_case "toolbox registry" `Quick test_toolbox_registry ]

(* Events fed straight to the observer, bypassing the runtime, so the
   schedule is exactly the pathological one. *)
let raw_put ~seq ~line =
  let open Rma_access in
  Event.Access
    {
      Event.space = 1;
      access =
        Access.make
          ~interval:(Interval.make ~lo:0 ~hi:7)
          ~kind:Access_kind.Rma_write ~issuer:0 ~seq
          ~debug:(Debug_info.make ~file:"closers.c" ~line ~operation:"MPI_Put");
      win = Some 0;
      relevant = true;
      on_stack = false;
      sim_time = float_of_int seq;
    }

let test_epoch_closers_count_distinct_ranks () =
  (* The §5.1 protocol clears a window's trees only once EVERY rank has
     closed its epoch. The regression: counting close events instead of
     distinct ranks lets rank 0, closing twice while rank 1's exposure
     epoch is still open, reach nprocs on its own and wipe rank 1's tree
     — hiding the race between the two overlapping puts it received. *)
  let tool = contribution ~nprocs:2 () in
  let feed e = ignore (tool.Tool.observer e) in
  feed (Event.Epoch_opened { win = 0; rank = 1; sim_time = 0.0 });
  feed (Event.Epoch_opened { win = 0; rank = 0; sim_time = 0.0 });
  feed (raw_put ~seq:1 ~line:10);
  feed (Event.Epoch_closed { win = 0; rank = 0; sim_time = 1.0 });
  feed (Event.Epoch_opened { win = 0; rank = 0; sim_time = 2.0 });
  feed (Event.Epoch_closed { win = 0; rank = 0; sim_time = 3.0 });
  (* Rank 1 never closed: the first put must still be in its tree. *)
  feed (raw_put ~seq:2 ~line:20);
  Alcotest.(check bool) "put/put race survives rank 0's double close" true
    (tool.Tool.race_count () >= 1)

let test_epoch_closers_still_clear_when_all_close () =
  (* The fix must not break the actual clear: after both ranks close,
     re-running the conflicting put races against nothing. *)
  let tool = contribution ~nprocs:2 () in
  let feed e = ignore (tool.Tool.observer e) in
  feed (Event.Epoch_opened { win = 0; rank = 1; sim_time = 0.0 });
  feed (raw_put ~seq:1 ~line:10);
  feed (Event.Epoch_closed { win = 0; rank = 1; sim_time = 1.0 });
  feed (Event.Epoch_closed { win = 0; rank = 0; sim_time = 1.0 });
  feed (Event.Epoch_opened { win = 0; rank = 1; sim_time = 2.0 });
  feed (raw_put ~seq:2 ~line:20);
  Alcotest.(check int) "trees cleared once every rank closed" 0 (tool.Tool.race_count ())

let test_max_reports_cap () =
  let tool = Rma_analyzer.create ~nprocs:2 ~mode:Tool.Collect Rma_analyzer.Contribution in
  let feed e = ignore (tool.Tool.observer e) in
  feed (Event.Epoch_opened { win = 0; rank = 1; sim_time = 0.0 });
  (* Each put races with the one before it. *)
  let puts = Tool.max_reports + 6 in
  for seq = 1 to puts do
    feed (raw_put ~seq ~line:(100 + seq))
  done;
  Alcotest.(check int) "cap bounds stored reports" Tool.max_reports (Tool.stored_races tool);
  Alcotest.(check bool) "every race still counted" true (tool.Tool.race_count () >= puts - 1);
  Alcotest.(check bool) "truncation visible" true (Tool.dropped_races tool >= 5)

let suite =
  suite
  @ [
      Alcotest.test_case "epoch closers are distinct ranks (premature-clear regression)" `Quick
        test_epoch_closers_count_distinct_ranks;
      Alcotest.test_case "window still clears once all ranks close" `Quick
        test_epoch_closers_still_clear_when_all_close;
      Alcotest.test_case "max_reports caps stored, not counted" `Quick test_max_reports_cap;
    ]
