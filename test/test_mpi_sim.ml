open Mpi_sim

let contains_sub s affix =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

let run ?(nprocs = 2) ?(seed = 1) ?(config = Sim_config.quiet_network) ?observer program =
  Runtime.run ~nprocs ~seed ~config ?observer program

let test_rank_and_size () =
  let seen = Array.make 4 (-1) in
  let _ = run ~nprocs:4 (fun () -> seen.(Mpi.comm_rank ()) <- Mpi.comm_size ()) in
  Alcotest.(check (array int)) "every rank ran" [| 4; 4; 4; 4 |] seen

let test_local_memory () =
  let witnessed = ref 0L in
  let _ =
    run ~nprocs:1 (fun () ->
        let a = Mpi.alloc ~label:"x" 16 in
        Mpi.store_i64 ~addr:a 77L;
        witnessed := Mpi.load_i64 ~addr:a ())
  in
  Alcotest.(check int64) "round trip" 77L !witnessed

let test_alloc_alignment_and_growth () =
  let ok = ref false in
  let _ =
    run ~nprocs:1 ~config:{ Sim_config.quiet_network with Config.memory_size = 64 } (fun () ->
        let a = Mpi.alloc 3 in
        let b = Mpi.alloc 5 in
        (* 8-byte alignment and growth beyond the initial 64 bytes. *)
        let big = Mpi.alloc 4096 in
        Mpi.store_i64 ~addr:big 1L;
        ok := a mod 8 = 0 && b mod 8 = 0 && b >= a + 3)
  in
  Alcotest.(check bool) "alignment and growth" true !ok

let test_put_moves_data () =
  let received = ref 0L in
  let _ =
    run ~nprocs:2 (fun () ->
        let rank = Mpi.comm_rank () in
        let base = Mpi.alloc ~exposed:true 64 in
        let win = Mpi.win_create ~base ~size:64 in
        Mpi.win_lock_all win;
        if rank = 0 then begin
          let src = Mpi.alloc ~exposed:true 8 in
          Mpi.store_i64 ~addr:src 4242L;
          Mpi.put win ~target:1 ~target_disp:0 ~origin_addr:src ~len:8
        end;
        Mpi.win_unlock_all win;
        Mpi.barrier ();
        if rank = 1 then received := Mpi.load_i64 ~addr:base ();
        Mpi.win_free win)
  in
  Alcotest.(check int64) "put landed in target window" 4242L !received

let test_get_moves_data () =
  let fetched = ref 0L in
  let _ =
    run ~nprocs:2 (fun () ->
        let rank = Mpi.comm_rank () in
        let base = Mpi.alloc ~exposed:true 64 in
        if rank = 1 then Mpi.store_i64 ~addr:base 1234L;
        let win = Mpi.win_create ~base ~size:64 in
        Mpi.barrier ();
        Mpi.win_lock_all win;
        if rank = 0 then begin
          let dst = Mpi.alloc ~exposed:true 8 in
          Mpi.get win ~target:1 ~target_disp:0 ~origin_addr:dst ~len:8;
          Mpi.win_unlock_all win;
          fetched := Mpi.load_i64 ~addr:dst ()
        end
        else Mpi.win_unlock_all win;
        Mpi.win_free win)
  in
  Alcotest.(check int64) "get fetched target value" 1234L !fetched

let test_deferred_completion_nondeterminism () =
  (* A racy read of the origin buffer right after a Get: across seeds the
     observed value must vary between the old and the fetched one —
     the paper's Figure 2a "buf is either equal to X or loc". *)
  let observe seed =
    let result = ref 0L in
    let config = { Sim_config.quiet_network with Config.apply_early_probability = 0.5 } in
    let _ =
      run ~nprocs:2 ~seed ~config (fun () ->
          let rank = Mpi.comm_rank () in
          let base = Mpi.alloc ~exposed:true 8 in
          if rank = 1 then Mpi.store_i64 ~addr:base 999L;
          let win = Mpi.win_create ~base ~size:8 in
          Mpi.barrier ();
          Mpi.win_lock_all win;
          if rank = 0 then begin
            let buf = Mpi.alloc ~exposed:true 8 in
            Mpi.store_i64 ~addr:buf 111L;
            Mpi.get win ~target:1 ~target_disp:0 ~origin_addr:buf ~len:8;
            (* Racy: reading buf before the epoch closes. *)
            result := Mpi.load_i64 ~addr:buf ()
          end;
          Mpi.win_unlock_all win;
          Mpi.win_free win)
    in
    !result
  in
  let values = List.init 20 observe in
  Alcotest.(check bool) "only old or new value observed" true
    (List.for_all (fun v -> v = 111L || v = 999L) values);
  Alcotest.(check bool) "both outcomes occur across seeds" true
    (List.mem 111L values && List.mem 999L values)

let test_barrier_does_not_complete_rma () =
  (* §6(1): per the MPI standard, MPI_Barrier does not terminate
     one-sided communications. With a seed forcing deferred application,
     the target must not yet see the data right after the barrier. *)
  let config = { Sim_config.quiet_network with Config.apply_early_probability = 0.0 } in
  let after_barrier = ref (-1L) and after_unlock = ref (-1L) in
  let _ =
    run ~nprocs:2 ~config (fun () ->
        let rank = Mpi.comm_rank () in
        let base = Mpi.alloc ~exposed:true 8 in
        let win = Mpi.win_create ~base ~size:8 in
        Mpi.win_lock_all win;
        if rank = 0 then begin
          let src = Mpi.alloc ~exposed:true 8 in
          Mpi.store_i64 ~addr:src 55L;
          Mpi.put win ~target:1 ~target_disp:0 ~origin_addr:src ~len:8
        end;
        Mpi.barrier ();
        if rank = 1 then after_barrier := Mpi.load_i64 ~addr:base ();
        Mpi.barrier ();
        Mpi.win_unlock_all win;
        Mpi.barrier ();
        if rank = 1 then after_unlock := Mpi.load_i64 ~addr:base ();
        Mpi.win_free win)
  in
  Alcotest.(check int64) "invisible after barrier" 0L !after_barrier;
  Alcotest.(check int64) "visible after unlock_all" 55L !after_unlock

let test_flush_all_completes_own_ops () =
  let config = { Sim_config.quiet_network with Config.apply_early_probability = 0.0 } in
  let seen = ref (-1L) in
  let _ =
    run ~nprocs:2 ~config (fun () ->
        let rank = Mpi.comm_rank () in
        let base = Mpi.alloc ~exposed:true 8 in
        let win = Mpi.win_create ~base ~size:8 in
        Mpi.win_lock_all win;
        if rank = 0 then begin
          let src = Mpi.alloc ~exposed:true 8 in
          Mpi.store_i64 ~addr:src 88L;
          Mpi.put win ~target:1 ~target_disp:0 ~origin_addr:src ~len:8;
          Mpi.win_flush_all win
        end;
        Mpi.barrier ();
        if rank = 1 then seen := Mpi.load_i64 ~addr:base ();
        Mpi.win_unlock_all win;
        Mpi.win_free win)
  in
  Alcotest.(check int64) "flush_all applied the put" 88L !seen

let test_rma_outside_epoch_rejected () =
  Alcotest.check_raises "put outside epoch"
    (Runtime.Mpi_error "rank 0: RMA operation on window 0 outside an epoch") (fun () ->
      ignore
        (run ~nprocs:1 (fun () ->
             let base = Mpi.alloc ~exposed:true 8 in
             let win = Mpi.win_create ~base ~size:8 in
             Mpi.put win ~target:0 ~target_disp:0 ~origin_addr:base ~len:8)))

let test_put_bounds_checked () =
  Alcotest.check_raises "displacement beyond window"
    (Runtime.Mpi_error "rank 0: put displacement [4, 12) outside window of size 8") (fun () ->
      ignore
        (run ~nprocs:1 (fun () ->
             let base = Mpi.alloc ~exposed:true 8 in
             let win = Mpi.win_create ~base ~size:8 in
             Mpi.win_lock_all win;
             Mpi.put win ~target:0 ~target_disp:4 ~origin_addr:base ~len:8)))

let test_nested_lock_rejected () =
  Alcotest.check_raises "double lock_all" (Runtime.Mpi_error "rank 0: nested lock_all on window 0")
    (fun () ->
      ignore
        (run ~nprocs:1 (fun () ->
             let base = Mpi.alloc ~exposed:true 8 in
             let win = Mpi.win_create ~base ~size:8 in
             Mpi.win_lock_all win;
             Mpi.win_lock_all win)))

let test_send_recv () =
  let got = ref "" in
  let _ =
    run ~nprocs:2 (fun () ->
        if Mpi.comm_rank () = 0 then Mpi.send ~dst:1 ~tag:7 (Bytes.of_string "hello")
        else got := Bytes.to_string (Mpi.recv ~src:0 ~tag:7 ()).Runtime.data)
  in
  Alcotest.(check string) "message delivered" "hello" !got

let test_recv_wildcards_and_ordering () =
  let order = ref [] in
  let _ =
    run ~nprocs:3 (fun () ->
        let rank = Mpi.comm_rank () in
        if rank > 0 then Mpi.send ~dst:0 ~tag:rank (Bytes.of_string (string_of_int rank))
        else begin
          let m1 = Mpi.recv ~src:1 () in
          let m2 = Mpi.recv () in
          order := [ m1.Runtime.src; m2.Runtime.src ]
        end)
  in
  match !order with
  | [ first; second ] ->
      Alcotest.(check int) "selective recv honoured src" 1 first;
      Alcotest.(check int) "wildcard recv got the other" 2 second
  | _ -> Alcotest.fail "expected two receives"

let test_allreduce () =
  let sums = Array.make 4 0 in
  let maxs = Array.make 4 0 in
  let floats = Array.make 4 0.0 in
  let _ =
    run ~nprocs:4 (fun () ->
        let rank = Mpi.comm_rank () in
        sums.(rank) <- Mpi.allreduce_int (rank + 1) ~op:Runtime.Sum;
        maxs.(rank) <- Mpi.allreduce_int rank ~op:Runtime.Max;
        floats.(rank) <- Mpi.allreduce_float (float_of_int rank +. 0.5) ~op:Runtime.Sum)
  in
  Alcotest.(check (array int)) "sum" [| 10; 10; 10; 10 |] sums;
  Alcotest.(check (array int)) "max" [| 3; 3; 3; 3 |] maxs;
  Alcotest.(check bool) "float sum" true (Array.for_all (fun f -> abs_float (f -. 8.0) < 1e-9) floats)

let test_deadlock_detection () =
  let raised =
    try
      ignore (run ~nprocs:2 (fun () -> if Mpi.comm_rank () = 0 then ignore (Mpi.recv ())));
      false
    with Runtime.Deadlock msg ->
      Alcotest.(check bool) "names the blocked rank" true
        (contains_sub msg "rank 0: waiting in recv");
      true
  in
  Alcotest.(check bool) "deadlock raised" true raised

let test_barrier_mismatch_deadlocks () =
  Alcotest.(check bool) "partial barrier deadlocks" true
    (try
       ignore (run ~nprocs:2 (fun () -> if Mpi.comm_rank () = 0 then Mpi.barrier ()));
       false
     with Runtime.Deadlock _ -> true)

let test_determinism_same_seed () =
  let trace seed =
    let events = ref [] in
    let observer ev =
      (match ev with
      | Event.Access a -> events := Rma_access.Access.to_string a.Event.access :: !events
      | _ -> ());
      0.0
    in
    let _ =
      run ~nprocs:3 ~seed ~observer (fun () ->
          let rank = Mpi.comm_rank () in
          let base = Mpi.alloc ~exposed:true 32 in
          let win = Mpi.win_create ~base ~size:32 in
          Mpi.win_lock_all win;
          let peer = (rank + 1) mod 3 in
          Mpi.put win ~target:peer ~target_disp:(8 * rank) ~origin_addr:base ~len:8;
          Mpi.win_unlock_all win;
          Mpi.win_free win)
    in
    !events
  in
  Alcotest.(check bool) "same seed, same trace" true (trace 7 = trace 7);
  Alcotest.(check bool) "sanity: trace non-empty" true (List.length (trace 7) > 0)

let test_event_stream_for_put () =
  (* One Put must produce an origin-side RMA_Read and a target-side
     RMA_Write, both attributed to the origin rank. *)
  let accesses = ref [] in
  let observer ev =
    (match ev with
    | Event.Access a ->
        if Rma_access.Access_kind.is_rma a.Event.access.Rma_access.Access.kind then
          accesses := (a.Event.space, a.Event.access.Rma_access.Access.kind, a.Event.access.Rma_access.Access.issuer) :: !accesses
    | _ -> ());
    0.0
  in
  let _ =
    run ~nprocs:2 ~observer (fun () ->
        let rank = Mpi.comm_rank () in
        let base = Mpi.alloc ~exposed:true 8 in
        let win = Mpi.win_create ~base ~size:8 in
        Mpi.win_lock_all win;
        if rank = 0 then begin
          let src = Mpi.alloc ~exposed:true 8 in
          Mpi.put win ~target:1 ~target_disp:0 ~origin_addr:src ~len:8
        end;
        Mpi.win_unlock_all win;
        Mpi.win_free win)
  in
  let sorted = List.sort compare !accesses in
  Alcotest.(check bool) "origin read + target write" true
    (sorted = [ (0, Rma_access.Access_kind.Rma_read, 0); (1, Rma_access.Access_kind.Rma_write, 0) ])

let test_alias_filter_relevance () =
  (* Local accesses to non-exposed allocations are filtered; exposed and
     in-window accesses survive. *)
  let relevant = ref [] and filtered = ref [] in
  let observer ev =
    (match ev with
    | Event.Access a when Rma_access.Access_kind.is_local a.Event.access.Rma_access.Access.kind ->
        let label = Rma_access.Debug_info.to_string a.Event.access.Rma_access.Access.debug in
        if a.Event.relevant then relevant := label :: !relevant else filtered := label :: !filtered
    | _ -> ());
    0.0
  in
  let _ =
    run ~nprocs:1 ~observer (fun () ->
        let private_buf = Mpi.alloc 8 in
        let exposed_buf = Mpi.alloc ~exposed:true 8 in
        let window_buf = Mpi.alloc 8 in
        let _win = Mpi.win_create ~base:window_buf ~size:8 in
        Mpi.store_i64 ~loc:(Mpi.loc ~file:"t.c" ~line:1 "private") ~addr:private_buf 1L;
        Mpi.store_i64 ~loc:(Mpi.loc ~file:"t.c" ~line:2 "exposed") ~addr:exposed_buf 1L;
        Mpi.store_i64 ~loc:(Mpi.loc ~file:"t.c" ~line:3 "inwindow") ~addr:window_buf 1L)
  in
  let has l affix = List.exists (fun s -> contains_sub s affix) l in
  Alcotest.(check bool) "private filtered" true (has !filtered "private");
  Alcotest.(check bool) "exposed relevant" true (has !relevant "exposed");
  Alcotest.(check bool) "in-window relevant" true (has !relevant "inwindow")

let test_stack_flag_propagates () =
  let stacky = ref false and heapy = ref true in
  let observer ev =
    (match ev with
    | Event.Access a -> (
        match a.Event.access.Rma_access.Access.debug.Rma_access.Debug_info.operation with
        | "stack_store" -> stacky := a.Event.on_stack
        | "heap_store" -> heapy := a.Event.on_stack
        | _ -> ())
    | _ -> ());
    0.0
  in
  let _ =
    run ~nprocs:1 ~observer (fun () ->
        let st = Mpi.alloc ~storage:Memory.Stack ~exposed:true 8 in
        let he = Mpi.alloc ~storage:Memory.Heap ~exposed:true 8 in
        Mpi.store_i64 ~loc:(Mpi.loc ~file:"t.c" ~line:1 "stack_store") ~addr:st 1L;
        Mpi.store_i64 ~loc:(Mpi.loc ~file:"t.c" ~line:2 "heap_store") ~addr:he 1L)
  in
  Alcotest.(check bool) "stack access flagged" true !stacky;
  Alcotest.(check bool) "heap access not flagged" false !heapy

let test_epoch_time_accounting () =
  let config =
    { Config.default with Config.analysis_overhead_scale = 0.0; apply_early_probability = 1.0 }
  in
  let result =
    run ~nprocs:2 ~config (fun () ->
        let base = Mpi.alloc ~exposed:true 8 in
        let win = Mpi.win_create ~base ~size:8 in
        Mpi.win_lock_all win;
        Mpi.compute 0.25;
        Mpi.win_unlock_all win;
        Mpi.win_free win)
  in
  Array.iter
    (fun t -> Alcotest.(check bool) "epoch time covers the compute" true (t >= 0.25 && t < 0.3))
    result.Runtime.epoch_times

let test_observer_protocol_cost_charged () =
  let observer = function Event.Epoch_closed _ -> 1.0 | _ -> 0.0 in
  let result =
    run ~nprocs:1 ~observer (fun () ->
        let base = Mpi.alloc ~exposed:true 8 in
        let win = Mpi.win_create ~base ~size:8 in
        Mpi.win_lock_all win;
        Mpi.win_unlock_all win;
        Mpi.win_free win)
  in
  Alcotest.(check bool) "protocol cost lands on the clock" true (result.Runtime.clocks.(0) >= 1.0)

let test_many_ranks_scale () =
  let result =
    run ~nprocs:64 (fun () ->
        let rank = Mpi.comm_rank () in
        let base = Mpi.alloc ~exposed:true 64 in
        let win = Mpi.win_create ~base ~size:64 in
        Mpi.win_lock_all win;
        let peer = (rank + 1) mod 64 in
        Mpi.put win ~target:peer ~target_disp:0 ~origin_addr:base ~len:8;
        Mpi.win_unlock_all win;
        let total = Mpi.allreduce_int 1 ~op:Runtime.Sum in
        assert (total = 64);
        Mpi.win_free win)
  in
  Alcotest.(check int) "64 ranks, 2 rma accesses each" 128 result.Runtime.accesses_emitted

let suite =
  [
    Alcotest.test_case "rank and size" `Quick test_rank_and_size;
    Alcotest.test_case "local load/store" `Quick test_local_memory;
    Alcotest.test_case "alloc alignment and growth" `Quick test_alloc_alignment_and_growth;
    Alcotest.test_case "put moves data" `Quick test_put_moves_data;
    Alcotest.test_case "get moves data" `Quick test_get_moves_data;
    Alcotest.test_case "deferred completion nondeterminism (Fig 2a)" `Quick
      test_deferred_completion_nondeterminism;
    Alcotest.test_case "barrier does not complete RMA (std semantics)" `Quick
      test_barrier_does_not_complete_rma;
    Alcotest.test_case "flush_all completes own ops" `Quick test_flush_all_completes_own_ops;
    Alcotest.test_case "RMA outside epoch rejected" `Quick test_rma_outside_epoch_rejected;
    Alcotest.test_case "put bounds checked" `Quick test_put_bounds_checked;
    Alcotest.test_case "nested lock rejected" `Quick test_nested_lock_rejected;
    Alcotest.test_case "send/recv" `Quick test_send_recv;
    Alcotest.test_case "recv wildcards and ordering" `Quick test_recv_wildcards_and_ordering;
    Alcotest.test_case "allreduce int/float" `Quick test_allreduce;
    Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
    Alcotest.test_case "barrier mismatch deadlocks" `Quick test_barrier_mismatch_deadlocks;
    Alcotest.test_case "determinism for equal seeds" `Quick test_determinism_same_seed;
    Alcotest.test_case "event stream for put" `Quick test_event_stream_for_put;
    Alcotest.test_case "alias filter relevance" `Quick test_alias_filter_relevance;
    Alcotest.test_case "stack flag propagates" `Quick test_stack_flag_propagates;
    Alcotest.test_case "epoch time accounting" `Quick test_epoch_time_accounting;
    Alcotest.test_case "observer protocol cost charged" `Quick test_observer_protocol_cost_charged;
    Alcotest.test_case "64 ranks scale" `Quick test_many_ranks_scale;
  ]

let test_flush_targets_only_one_rank () =
  (* win_flush ~rank completes only operations towards that target. *)
  let config = { Sim_config.quiet_network with Config.apply_early_probability = 0.0 } in
  let seen1 = ref (-1L) and seen2 = ref (-1L) in
  let _ =
    run ~nprocs:3 ~config (fun () ->
        let rank = Mpi.comm_rank () in
        let base = Mpi.alloc ~exposed:true 8 in
        let win = Mpi.win_create ~base ~size:8 in
        Mpi.win_lock_all win;
        if rank = 0 then begin
          let src = Mpi.alloc ~exposed:true 8 in
          Mpi.store_i64 ~addr:src 7L;
          Mpi.put win ~target:1 ~target_disp:0 ~origin_addr:src ~len:8;
          Mpi.put win ~target:2 ~target_disp:0 ~origin_addr:src ~len:8;
          Mpi.win_flush win ~rank:1
        end;
        Mpi.barrier ();
        if rank = 1 then seen1 := Mpi.load_i64 ~addr:base ();
        if rank = 2 then seen2 := Mpi.load_i64 ~addr:base ();
        (* Keep rank 0's unlock_all (which would complete the second
           put) after every observation. *)
        Mpi.barrier ();
        Mpi.win_unlock_all win;
        Mpi.win_free win)
  in
  Alcotest.(check int64) "target 1 flushed" 7L !seen1;
  Alcotest.(check int64) "target 2 still pending" 0L !seen2

let test_double_win_free_rejected () =
  Alcotest.check_raises "double free" (Runtime.Mpi_error "window 0 already freed") (fun () ->
      ignore
        (run ~nprocs:1 (fun () ->
             let base = Mpi.alloc ~exposed:true 8 in
             let win = Mpi.win_create ~base ~size:8 in
             Mpi.win_free win;
             Mpi.win_free win)))

let test_win_free_with_open_epoch_rejected () =
  Alcotest.check_raises "free with open epoch"
    (Runtime.Mpi_error "rank 0: win_free with an open epoch on window 0") (fun () ->
      ignore
        (run ~nprocs:1 (fun () ->
             let base = Mpi.alloc ~exposed:true 8 in
             let win = Mpi.win_create ~base ~size:8 in
             Mpi.win_lock_all win;
             Mpi.win_free win)))

let test_send_to_self () =
  let got = ref 0L in
  let _ =
    run ~nprocs:1 (fun () ->
        let b = Bytes.create 8 in
        Bytes.set_int64_le b 0 31L;
        Mpi.send ~dst:0 ~tag:0 b;
        got := Bytes.get_int64_le (Mpi.recv ()).Runtime.data 0)
  in
  Alcotest.(check int64) "self message" 31L !got

let test_allreduce_min () =
  let mins = Array.make 3 0 in
  let _ =
    run ~nprocs:3 (fun () ->
        let rank = Mpi.comm_rank () in
        mins.(rank) <- Mpi.allreduce_int (10 - rank) ~op:Runtime.Min)
  in
  Alcotest.(check (array int)) "min" [| 8; 8; 8 |] mins

let test_put_after_unlock_rejected () =
  Alcotest.check_raises "put after epoch closed"
    (Runtime.Mpi_error "rank 0: RMA operation on window 0 outside an epoch") (fun () ->
      ignore
        (run ~nprocs:1 (fun () ->
             let base = Mpi.alloc ~exposed:true 8 in
             let win = Mpi.win_create ~base ~size:8 in
             Mpi.win_lock_all win;
             Mpi.win_unlock_all win;
             Mpi.put win ~target:0 ~target_disp:0 ~origin_addr:base ~len:8)))

let test_two_windows_independent_epochs () =
  let ok = ref false in
  let _ =
    run ~nprocs:2 (fun () ->
        let a = Mpi.alloc ~exposed:true 16 in
        let b = Mpi.alloc ~exposed:true 16 in
        let win_a = Mpi.win_create ~base:a ~size:16 in
        let win_b = Mpi.win_create ~base:b ~size:16 in
        Mpi.win_lock_all win_a;
        Mpi.win_lock_all win_b;
        if Mpi.comm_rank () = 0 then begin
          Mpi.put win_a ~target:1 ~target_disp:0 ~origin_addr:a ~len:8;
          Mpi.put win_b ~target:1 ~target_disp:8 ~origin_addr:b ~len:8
        end;
        Mpi.win_unlock_all win_b;
        (* win_a's epoch is still open. *)
        if Mpi.comm_rank () = 0 then
          Mpi.put win_a ~target:1 ~target_disp:8 ~origin_addr:a ~len:8;
        Mpi.win_unlock_all win_a;
        Mpi.win_free win_a;
        Mpi.win_free win_b;
        ok := true)
  in
  Alcotest.(check bool) "completed" true !ok

let extra_suite =
  [
    Alcotest.test_case "flush targets only one rank" `Quick test_flush_targets_only_one_rank;
    Alcotest.test_case "double win_free rejected" `Quick test_double_win_free_rejected;
    Alcotest.test_case "win_free with open epoch rejected" `Quick
      test_win_free_with_open_epoch_rejected;
    Alcotest.test_case "send to self" `Quick test_send_to_self;
    Alcotest.test_case "allreduce min" `Quick test_allreduce_min;
    Alcotest.test_case "put after unlock rejected" `Quick test_put_after_unlock_rejected;
    Alcotest.test_case "two windows, independent epochs" `Quick
      test_two_windows_independent_epochs;
  ]

let suite = suite @ extra_suite

(* --- Active-target (fence) synchronisation --- *)

let test_fence_moves_data () =
  let config = { Sim_config.quiet_network with Config.apply_early_probability = 0.0 } in
  let seen = ref (-1L) in
  let _ =
    run ~nprocs:2 ~config (fun () ->
        let rank = Mpi.comm_rank () in
        let base = Mpi.alloc ~exposed:true 8 in
        let win = Mpi.win_create ~base ~size:8 in
        Mpi.win_fence win;
        if rank = 0 then begin
          let src = Mpi.alloc ~exposed:true 8 in
          Mpi.store_i64 ~addr:src 17L;
          Mpi.put win ~target:1 ~target_disp:0 ~origin_addr:src ~len:8
        end;
        Mpi.win_fence win;
        (* Fence is collective and completing: the data must be visible. *)
        if rank = 1 then seen := Mpi.load_i64 ~addr:base ();
        Mpi.win_fence win;
        Mpi.win_free win)
  in
  Alcotest.(check int64) "fence completed the put" 17L !seen

let test_fence_epochs_separate_for_detectors () =
  (* Two puts to the same location in different fence epochs are safe;
     in the same epoch they race. *)
  let open Rma_analysis in
  let run_with tool separate =
    tool.Tool.reset ();
    (try
       ignore
         (run ~nprocs:2 ~observer:tool.Tool.observer (fun () ->
              let rank = Mpi.comm_rank () in
              let base = Mpi.alloc ~exposed:true 8 in
              let win = Mpi.win_create ~base ~size:8 in
              Mpi.win_fence win;
              if rank = 0 then begin
                let src = Mpi.alloc ~exposed:true 8 in
                Mpi.put win ~target:1 ~target_disp:0 ~origin_addr:src ~len:8;
                if not separate then
                  Mpi.put win ~target:1 ~target_disp:0 ~origin_addr:src ~len:8
              end;
              Mpi.win_fence win;
              if rank = 0 && separate then begin
                let src2 = Mpi.alloc ~exposed:true 8 in
                Mpi.put win ~target:1 ~target_disp:0 ~origin_addr:src2 ~len:8
              end;
              Mpi.win_fence win;
              Mpi.win_free win))
     with Report.Race_abort _ -> ());
    tool.Tool.race_count ()
  in
  let contribution () =
    Rma_analyzer.create ~nprocs:2 ~mode:Tool.Collect Rma_analyzer.Contribution
  in
  Alcotest.(check int) "separate epochs safe" 0 (run_with (contribution ()) true);
  Alcotest.(check bool) "same epoch races" true (run_with (contribution ()) false > 0);
  let must () = Must_rma.create ~nprocs:2 () in
  Alcotest.(check int) "must: separate epochs safe" 0 (run_with (must ()) true);
  Alcotest.(check bool) "must: same epoch races" true (run_with (must ()) false > 0)

let test_fence_mismatch_deadlocks () =
  Alcotest.(check bool) "partial fence deadlocks" true
    (try
       ignore
         (run ~nprocs:2 (fun () ->
              let base = Mpi.alloc ~exposed:true 8 in
              let win = Mpi.win_create ~base ~size:8 in
              if Mpi.comm_rank () = 0 then Mpi.win_fence win;
              Mpi.barrier ()));
       false
     with Runtime.Deadlock _ -> true)

let suite =
  suite
  @ [
      Alcotest.test_case "fence moves data" `Quick test_fence_moves_data;
      Alcotest.test_case "fence epochs separate for detectors" `Quick
        test_fence_epochs_separate_for_detectors;
      Alcotest.test_case "fence mismatch deadlocks" `Quick test_fence_mismatch_deadlocks;
    ]

(* --- Per-target passive locks --- *)

let test_lock_put_unlock () =
  let config = { Sim_config.quiet_network with Config.apply_early_probability = 0.0 } in
  let seen = ref 0L in
  let _ =
    run ~nprocs:2 ~config (fun () ->
        let rank = Mpi.comm_rank () in
        let base = Mpi.alloc ~exposed:true 8 in
        let win = Mpi.win_create ~base ~size:8 in
        if rank = 0 then begin
          Mpi.win_lock win ~rank:1;
          let src = Mpi.alloc ~exposed:true 8 in
          Mpi.store_i64 ~addr:src 23L;
          Mpi.put win ~target:1 ~target_disp:0 ~origin_addr:src ~len:8;
          Mpi.win_unlock win ~rank:1
        end;
        Mpi.barrier ();
        if rank = 1 then seen := Mpi.load_i64 ~addr:base ();
        Mpi.win_free win)
  in
  Alcotest.(check int64) "unlock completed the put" 23L !seen

let test_exclusive_locks_mutually_exclude () =
  (* Two origins increment the same window cell under exclusive locks:
     with real mutual exclusion both increments land (no lost update),
     under any seed. *)
  let config = { Sim_config.quiet_network with Config.apply_early_probability = 1.0 } in
  List.iter
    (fun seed ->
      let final = ref 0L in
      let _ =
        run ~nprocs:3 ~seed ~config (fun () ->
            let rank = Mpi.comm_rank () in
            let base = Mpi.alloc ~exposed:true 8 in
            let win = Mpi.win_create ~base ~size:8 in
            if rank = 1 || rank = 2 then begin
              Mpi.win_lock ~exclusive:true win ~rank:0;
              (* read-modify-write of rank 0's cell *)
              let tmp = Mpi.alloc ~exposed:true 8 in
              Mpi.get win ~target:0 ~target_disp:0 ~origin_addr:tmp ~len:8;
              Mpi.win_flush win ~rank:0;
              let v = Mpi.load_i64 ~addr:tmp () in
              Mpi.store_i64 ~addr:tmp (Int64.add v 1L);
              Mpi.put win ~target:0 ~target_disp:0 ~origin_addr:tmp ~len:8;
              Mpi.win_unlock win ~rank:0
            end;
            Mpi.barrier ();
            if rank = 0 then final := Mpi.load_i64 ~addr:base ();
            Mpi.win_free win)
      in
      Alcotest.(check int64) (Printf.sprintf "no lost update (seed %d)" seed) 2L !final)
    [ 1; 5; 9; 13 ]

let test_shared_locks_coexist () =
  let ok = ref false in
  let _ =
    run ~nprocs:3 (fun () ->
        let rank = Mpi.comm_rank () in
        let base = Mpi.alloc ~exposed:true 16 in
        let win = Mpi.win_create ~base ~size:16 in
        if rank > 0 then begin
          Mpi.win_lock win ~rank:0;
          let dst = Mpi.alloc ~exposed:true 8 in
          Mpi.get win ~target:0 ~target_disp:0 ~origin_addr:dst ~len:8;
          Mpi.win_unlock win ~rank:0
        end;
        Mpi.barrier ();
        ok := true;
        Mpi.win_free win)
  in
  Alcotest.(check bool) "no deadlock among shared lockers" true !ok

let test_unlock_without_lock_rejected () =
  Alcotest.check_raises "unlock without lock"
    (Runtime.Mpi_error "rank 0: unlock without a lock on window 0 target 0") (fun () ->
      ignore
        (run ~nprocs:1 (fun () ->
             let base = Mpi.alloc ~exposed:true 8 in
             let win = Mpi.win_create ~base ~size:8 in
             Mpi.win_unlock win ~rank:0)))

let test_lock_epoch_seen_by_detector () =
  (* A racy pair inside one per-target lock epoch is detected; the same
     pair split across two lock/unlock epochs of the SAME origin is not
     (the tree is per-epoch). *)
  let open Rma_analysis in
  let run_variant split =
    let tool = Rma_analyzer.create ~nprocs:2 ~mode:Tool.Collect Rma_analyzer.Contribution in
    (try
       ignore
         (run ~nprocs:2 ~observer:tool.Tool.observer (fun () ->
              let rank = Mpi.comm_rank () in
              let base = Mpi.alloc ~exposed:true 8 in
              let win = Mpi.win_create ~base ~size:8 in
              if rank = 0 then begin
                let src = Mpi.alloc ~exposed:true 8 in
                Mpi.win_lock win ~rank:1;
                Mpi.put win ~target:1 ~target_disp:0 ~origin_addr:src ~len:8;
                if split then begin
                  Mpi.win_unlock win ~rank:1;
                  Mpi.win_lock win ~rank:1
                end;
                Mpi.put win ~target:1 ~target_disp:0 ~origin_addr:src ~len:8;
                Mpi.win_unlock win ~rank:1
              end;
              Mpi.barrier ();
              Mpi.win_free win))
     with Report.Race_abort _ -> ());
    tool.Tool.race_count ()
  in
  Alcotest.(check bool) "same epoch: duplicate put flagged" true (run_variant false > 0)

let suite =
  suite
  @ [
      Alcotest.test_case "lock/put/unlock" `Quick test_lock_put_unlock;
      Alcotest.test_case "exclusive locks mutually exclude" `Quick
        test_exclusive_locks_mutually_exclude;
      Alcotest.test_case "shared locks coexist" `Quick test_shared_locks_coexist;
      Alcotest.test_case "unlock without lock rejected" `Quick test_unlock_without_lock_rejected;
      Alcotest.test_case "lock epoch seen by detector" `Quick test_lock_epoch_seen_by_detector;
    ]

(* --- MPI_Accumulate --- *)

let test_accumulate_sums_across_ranks () =
  (* Every rank accumulates its rank+1 into rank 0's cell; the final
     value must be the exact sum under every seed (element atomicity +
     commutativity). *)
  List.iter
    (fun seed ->
      let final = ref 0L in
      let config = { Sim_config.quiet_network with Config.apply_early_probability = 0.5 } in
      let _ =
        run ~nprocs:5 ~seed ~config (fun () ->
            let rank = Mpi.comm_rank () in
            let base = Mpi.alloc ~exposed:true 8 in
            let win = Mpi.win_create ~base ~size:8 in
            Mpi.win_lock_all win;
            let src = Mpi.alloc ~exposed:true 8 in
            Mpi.store_i64 ~addr:src (Int64.of_int (rank + 1));
            Mpi.accumulate win ~target:0 ~target_disp:0 ~origin_addr:src ~len:8 ~op:Runtime.Sum;
            Mpi.win_unlock_all win;
            Mpi.barrier ();
            if rank = 0 then final := Mpi.load_i64 ~addr:base ();
            Mpi.win_free win)
      in
      Alcotest.(check int64) (Printf.sprintf "sum (seed %d)" seed) 15L !final)
    [ 1; 2; 3; 4; 5 ]

let test_accumulate_max () =
  let final = ref 0L in
  let _ =
    run ~nprocs:4 (fun () ->
        let rank = Mpi.comm_rank () in
        let base = Mpi.alloc ~exposed:true 8 in
        let win = Mpi.win_create ~base ~size:8 in
        Mpi.win_lock_all win;
        let src = Mpi.alloc ~exposed:true 8 in
        Mpi.store_i64 ~addr:src (Int64.of_int ((rank * 7) mod 19));
        Mpi.accumulate win ~target:0 ~target_disp:0 ~origin_addr:src ~len:8 ~op:Runtime.Max;
        Mpi.win_unlock_all win;
        Mpi.barrier ();
        if rank = 0 then final := Mpi.load_i64 ~addr:base ();
        Mpi.win_free win)
  in
  Alcotest.(check int64) "max of contributions" 14L !final

let accumulate_program ~second () =
  let rank = Mpi.comm_rank () in
  let base = Mpi.alloc ~exposed:true 8 in
  let win = Mpi.win_create ~base ~size:8 in
  Mpi.win_lock_all win;
  if rank > 0 then begin
    let src = Mpi.alloc ~exposed:true 8 in
    Mpi.store_i64 ~addr:src 1L;
    if rank = 1 || second = `Accumulate then
      Mpi.accumulate win ~loc:(Mpi.loc ~file:"acc.c" ~line:(10 * rank) "MPI_Accumulate")
        ~target:0 ~target_disp:0 ~origin_addr:src ~len:8 ~op:Runtime.Sum
    else
      Mpi.put win ~loc:(Mpi.loc ~file:"acc.c" ~line:(10 * rank) "MPI_Put") ~target:0
        ~target_disp:0 ~origin_addr:src ~len:8
  end;
  Mpi.win_unlock_all win;
  Mpi.win_free win

let races_under tool program =
  let open Rma_analysis in
  (try ignore (run ~nprocs:3 ~observer:tool.Tool.observer program)
   with Report.Race_abort _ -> ());
  tool.Tool.race_count ()

let test_concurrent_accumulates_safe () =
  let open Rma_analysis in
  List.iter
    (fun (name, tool) ->
      Alcotest.(check int) (name ^ ": acc/acc safe") 0
        (races_under tool (accumulate_program ~second:`Accumulate)))
    [
      ( "contribution",
        Rma_analyzer.create ~nprocs:3 ~mode:Tool.Collect Rma_analyzer.Contribution );
      ("must", Must_rma.create ~nprocs:3 ());
    ]

let test_accumulate_vs_put_races () =
  let open Rma_analysis in
  List.iter
    (fun (name, tool) ->
      Alcotest.(check bool) (name ^ ": acc/put races") true
        (races_under tool (accumulate_program ~second:`Put) > 0))
    [
      ( "contribution",
        Rma_analyzer.create ~nprocs:3 ~mode:Tool.Collect Rma_analyzer.Contribution );
      ("must", Must_rma.create ~nprocs:3 ());
    ]

let test_accumulate_vs_local_read_races () =
  let open Rma_analysis in
  let tool = Rma_analyzer.create ~nprocs:3 ~mode:Tool.Collect Rma_analyzer.Contribution in
  let program () =
    let rank = Mpi.comm_rank () in
    let base = Mpi.alloc ~exposed:true 8 in
    let win = Mpi.win_create ~base ~size:8 in
    Mpi.win_lock_all win;
    if rank = 1 then begin
      let src = Mpi.alloc ~exposed:true 8 in
      Mpi.accumulate win ~target:0 ~target_disp:0 ~origin_addr:src ~len:8 ~op:Runtime.Sum
    end
    else ignore (Mpi.load ~addr:base ~len:8 ());
    Mpi.win_unlock_all win;
    Mpi.win_free win
  in
  Alcotest.(check bool) "acc vs target load races" true (races_under tool program > 0)

let suite =
  suite
  @ [
      Alcotest.test_case "accumulate sums across ranks" `Quick test_accumulate_sums_across_ranks;
      Alcotest.test_case "accumulate max" `Quick test_accumulate_max;
      Alcotest.test_case "concurrent accumulates are race-free" `Quick
        test_concurrent_accumulates_safe;
      Alcotest.test_case "accumulate vs put races" `Quick test_accumulate_vs_put_races;
      Alcotest.test_case "accumulate vs local read races" `Quick
        test_accumulate_vs_local_read_races;
    ]
