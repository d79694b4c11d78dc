open Rma_access
open Rma_store

let dbg ?(file = "code.c") ?(op = "op") line = Debug_info.make ~file ~line ~operation:op

let acc ?(issuer = 0) ~seq ?(line = 1) ?(op = "op") lo hi kind =
  Access.make ~interval:(Interval.make ~lo ~hi) ~kind ~issuer ~seq ~debug:(dbg ~op line)

let is_race = function Store_intf.Race_detected _ -> true | Store_intf.Inserted -> false

let expect_inserted name outcome = Alcotest.(check bool) name false (is_race outcome)
let expect_race name outcome = Alcotest.(check bool) name true (is_race outcome)

(* --- Code 1 (Figure 8a): Load(4); MPI_Put(2,12); Store(7). --- *)

let code1_accesses =
  [
    acc ~seq:1 ~line:1 ~op:"Load" 4 4 Access_kind.Local_read;
    acc ~seq:2 ~line:2 ~op:"MPI_Put" 2 12 Access_kind.Rma_read;
    acc ~seq:3 ~line:3 ~op:"Store" 7 7 Access_kind.Local_write;
  ]

let test_legacy_misses_code1_race () =
  (* The published false negative (Figure 5a): the Store(7) conflicts with
     the Put's RMA_Read over [2...12], but that node sits off the
     lower-bound search path of 7. *)
  let store = Legacy_store.create () in
  List.iter (fun a -> expect_inserted "no race seen" (Legacy_store.insert store a)) code1_accesses;
  Alcotest.(check int) "all three nodes inserted" 3 (Legacy_store.size store)

let test_contribution_detects_code1_race () =
  let store = Disjoint_store.create () in
  let outcomes = List.map (Disjoint_store.insert store) code1_accesses in
  match outcomes with
  | [ first; second; third ] ->
      expect_inserted "load ok" first;
      expect_inserted "put ok" second;
      expect_race "store(7) races with the put" third
  | _ -> Alcotest.fail "expected three outcomes"

let test_code1_race_report_points_at_put () =
  let store = Disjoint_store.create () in
  let rec run = function
    | [] -> Alcotest.fail "race not detected"
    | a :: rest -> (
        match Disjoint_store.insert store a with
        | Store_intf.Inserted -> run rest
        | Store_intf.Race_detected { existing; incoming } ->
            Alcotest.(check string) "existing op" "MPI_Put" existing.Access.debug.Debug_info.operation;
            Alcotest.(check int) "existing line" 2 existing.Access.debug.Debug_info.line;
            Alcotest.(check string) "incoming op" "Store" incoming.Access.debug.Debug_info.operation)
  in
  run code1_accesses

let test_fragmentation_only_matches_figure_5b () =
  (* With merging disabled the tree after Load(4); Put(2,12) holds the
     three fragments of Figure 5b, all RMA_Read. *)
  let store = Disjoint_store.create ~merge:false () in
  expect_inserted "load" (Disjoint_store.insert store (List.nth code1_accesses 0));
  expect_inserted "put" (Disjoint_store.insert store (List.nth code1_accesses 1));
  let contents =
    List.map
      (fun a -> (Interval.lo a.Access.interval, Interval.hi a.Access.interval, a.Access.kind))
      (Disjoint_store.to_list store)
  in
  Alcotest.(check int) "three fragments" 3 (List.length contents);
  Alcotest.(check bool) "fragments are [2..3][4][5..12] all RMA_Read" true
    (contents
    = [
        (2, 3, Access_kind.Rma_read); (4, 4, Access_kind.Rma_read); (5, 12, Access_kind.Rma_read);
      ])

let test_merging_collapses_code1_put () =
  (* With merging on, the three fragments share kind and debug info (the
     Put dominates the Load on [4]) and collapse back to one node. *)
  let store = Disjoint_store.create () in
  expect_inserted "load" (Disjoint_store.insert store (List.nth code1_accesses 0));
  expect_inserted "put" (Disjoint_store.insert store (List.nth code1_accesses 1));
  Alcotest.(check int) "single node" 1 (Disjoint_store.size store);
  match Disjoint_store.to_list store with
  | [ only ] ->
      Alcotest.(check int) "lo" 2 (Interval.lo only.Access.interval);
      Alcotest.(check int) "hi" 12 (Interval.hi only.Access.interval);
      Alcotest.(check bool) "kind" true (Access_kind.equal only.Access.kind Access_kind.Rma_read)
  | _ -> Alcotest.fail "expected exactly one node"

(* --- Code 2 (Figure 8b): 1000 adjacent one-byte Gets in a loop. --- *)

let code2_run store_insert =
  (* Addresses: buf at 0..999, loop variable i at 5000. Emission per the
     paper's counting: one initial access of i, then per iteration the
     four accesses of i (condition read, index read, increment read and
     write) and the origin-side RMA_Write of buf[i]. *)
  let seq = ref 0 in
  let next () = incr seq; !seq in
  let i_addr = 5000 in
  let outcomes = ref [] in
  let emit a = outcomes := store_insert a :: !outcomes in
  emit (acc ~seq:(next ()) ~line:1 ~op:"Store" i_addr i_addr Access_kind.Local_write);
  for i = 0 to 999 do
    emit (acc ~seq:(next ()) ~line:1 ~op:"Load" i_addr i_addr Access_kind.Local_read);
    emit (acc ~seq:(next ()) ~line:2 ~op:"Load" i_addr i_addr Access_kind.Local_read);
    emit (acc ~seq:(next ()) ~line:2 ~op:"MPI_Get" i i Access_kind.Rma_write);
    emit (acc ~seq:(next ()) ~line:1 ~op:"Load" i_addr i_addr Access_kind.Local_read);
    emit (acc ~seq:(next ()) ~line:1 ~op:"Store" i_addr i_addr Access_kind.Local_write)
  done;
  List.rev !outcomes

let test_legacy_code2_node_explosion () =
  let store = Legacy_store.create () in
  let outcomes = code2_run (Legacy_store.insert store) in
  Alcotest.(check bool) "no race in the loop" true (List.for_all (fun o -> not (is_race o)) outcomes);
  (* 1 initial + 5 per iteration x 1000 = 5001 nodes (the paper's 5002
     includes the final duplicated Get issued after the loop). *)
  Alcotest.(check int) "one node per access" 5001 (Legacy_store.size store)

let test_contribution_code2_merges_to_two_nodes () =
  let store = Disjoint_store.create () in
  let outcomes = code2_run (Disjoint_store.insert store) in
  Alcotest.(check bool) "no race in the loop" true (List.for_all (fun o -> not (is_race o)) outcomes);
  Alcotest.(check int) "i + merged gets" 2 (Disjoint_store.size store);
  let spans =
    List.map
      (fun a -> (Interval.lo a.Access.interval, Interval.hi a.Access.interval))
      (Disjoint_store.to_list store)
  in
  Alcotest.(check bool) "gets merged into [0...999]" true (List.mem (0, 999) spans)

let test_contribution_code2_final_get_races () =
  (* The trailing MPI_Get(buf[0],1,X) writes buf[0] a second time from the
     same epoch: an origin-side RMA_Write/RMA_Write race (Figure 3,
     GET/GET cell). *)
  let store = Disjoint_store.create () in
  ignore (code2_run (Disjoint_store.insert store));
  let final = acc ~seq:99999 ~line:4 ~op:"MPI_Get" 0 0 Access_kind.Rma_write in
  expect_race "duplicate get on buf[0]" (Disjoint_store.insert store final)

(* --- Merging preconditions. --- *)

let test_merge_requires_same_debug_info () =
  (* Two adjacent RMA_Writes from different source lines must stay
     separate: "they will not be fixed in the same way" (§4.2). *)
  let store = Disjoint_store.create () in
  expect_inserted "first" (Disjoint_store.insert store (acc ~seq:1 ~line:10 ~op:"MPI_Get" 0 3 Access_kind.Rma_write));
  expect_inserted "second" (Disjoint_store.insert store (acc ~seq:2 ~line:20 ~op:"MPI_Get" 4 7 Access_kind.Rma_write));
  Alcotest.(check int) "not merged" 2 (Disjoint_store.size store)

let test_merge_requires_same_kind () =
  let store = Disjoint_store.create () in
  expect_inserted "first" (Disjoint_store.insert store (acc ~seq:1 ~line:10 0 3 Access_kind.Local_read));
  expect_inserted "second" (Disjoint_store.insert store (acc ~seq:2 ~line:10 4 7 Access_kind.Local_write));
  Alcotest.(check int) "not merged" 2 (Disjoint_store.size store)

let test_merge_chains_across_gap_filling () =
  (* [0..3] and [8..11] from the same line, then [4..7] arrives: all three
     coalesce. *)
  let store = Disjoint_store.create () in
  expect_inserted "left" (Disjoint_store.insert store (acc ~seq:1 ~line:5 ~op:"MPI_Put" 0 3 Access_kind.Rma_read));
  expect_inserted "right" (Disjoint_store.insert store (acc ~seq:2 ~line:5 ~op:"MPI_Put" 8 11 Access_kind.Rma_read));
  Alcotest.(check int) "separate before" 2 (Disjoint_store.size store);
  expect_inserted "middle" (Disjoint_store.insert store (acc ~seq:3 ~line:5 ~op:"MPI_Put" 4 7 Access_kind.Rma_read));
  Alcotest.(check int) "merged to one" 1 (Disjoint_store.size store);
  match Disjoint_store.to_list store with
  | [ only ] ->
      Alcotest.(check bool) "covers [0...11]" true
        (Interval.equal only.Access.interval (Interval.make ~lo:0 ~hi:11))
  | _ -> Alcotest.fail "expected one node"

let test_order_aware_flag () =
  (* Load then Get on the same buffer: safe for the contribution, flagged
     by the order-insensitive ablation (the legacy false positive). *)
  let load = acc ~seq:1 ~line:1 ~op:"Load" 0 7 Access_kind.Local_read in
  let get = acc ~seq:2 ~line:2 ~op:"MPI_Get" 0 7 Access_kind.Rma_write in
  let aware = Disjoint_store.create () in
  expect_inserted "load" (Disjoint_store.insert aware load);
  expect_inserted "get after load is safe" (Disjoint_store.insert aware get);
  let blind = Disjoint_store.create ~order_aware:false () in
  expect_inserted "load" (Disjoint_store.insert blind load);
  expect_race "order-insensitive flags it" (Disjoint_store.insert blind get)

let test_race_not_inserted () =
  let store = Disjoint_store.create () in
  expect_inserted "put" (Disjoint_store.insert store (acc ~seq:1 ~op:"MPI_Put" 0 7 Access_kind.Rma_write));
  expect_race "store races" (Disjoint_store.insert store (acc ~seq:2 ~op:"Store" 3 3 Access_kind.Local_write));
  Alcotest.(check int) "racy access not recorded" 1 (Disjoint_store.size store)

let test_clear_keeps_cumulative_stats () =
  let store = Disjoint_store.create () in
  expect_inserted "a" (Disjoint_store.insert store (acc ~seq:1 0 3 Access_kind.Local_read));
  Disjoint_store.clear store;
  Alcotest.(check int) "empty" 0 (Disjoint_store.size store);
  Alcotest.(check int) "inserts survive clear" 1 (Disjoint_store.stats store).Store_intf.inserts

let test_dominance_absorption_imprecision () =
  (* Inherited from the paper's Table 1 design: a byte keeps only its
     dominant access, so a Local_write absorbed by the owner's own
     RMA_Read (safe by program order) is no longer visible when a remote
     RMA_Read later touches the byte — the write/remote-read race goes
     unreported. We pin the behaviour so a future change is deliberate. *)
  let store = Disjoint_store.create () in
  expect_inserted "owner store"
    (Disjoint_store.insert store (acc ~issuer:0 ~seq:1 ~line:1 ~op:"Store" 0 7 Access_kind.Local_write));
  expect_inserted "owner get (safe by order)"
    (Disjoint_store.insert store (acc ~issuer:0 ~seq:2 ~line:2 ~op:"MPI_Get" 0 7 Access_kind.Rma_read));
  expect_inserted "remote read slips through"
    (Disjoint_store.insert store (acc ~issuer:1 ~seq:3 ~line:3 ~op:"MPI_Get" 0 7 Access_kind.Rma_read))

(* --- Insert fast path: the finger cache. --- *)

let adjacent_run ?(n = 8) ?(lo0 = 0) ?(line = 2) ?(seq0 = 1) store =
  for i = 0 to n - 1 do
    expect_inserted "run access"
      (Disjoint_store.insert store
         (acc ~seq:(seq0 + i) ~line ~op:"MPI_Get" (lo0 + i) (lo0 + i) Access_kind.Rma_write))
  done

let test_finger_absorbs_adjacent_run () =
  let store = Disjoint_store.create () in
  adjacent_run ~n:8 store;
  Alcotest.(check int) "one coalesced run" 1 (Disjoint_store.size store);
  Alcotest.(check int) "every extension is a finger hit" 7 (Disjoint_store.finger_hits store);
  Alcotest.(check bool) "fast-path invariants hold" true (Disjoint_store.self_check store)

let test_overlap_after_run_flushes_and_races () =
  (* Finger invalidation: an overlapping conflicting access after a
     coalesced run must flush the finger and race against the full
     hull, exactly as the slow path would. *)
  let store = Disjoint_store.create () in
  adjacent_run ~n:8 store;
  (match Disjoint_store.insert store (acc ~seq:50 ~line:9 ~op:"Store" 3 3 Access_kind.Local_write) with
  | Store_intf.Inserted -> Alcotest.fail "race against the finger run missed"
  | Store_intf.Race_detected { existing; _ } ->
      Alcotest.(check bool) "existing is the coalesced hull" true
        (Interval.equal existing.Access.interval (Interval.make ~lo:0 ~hi:7)));
  Alcotest.(check int) "run flushed, racy access not recorded" 1 (Disjoint_store.size store);
  Alcotest.(check bool) "fast-path invariants hold" true (Disjoint_store.self_check store)

let test_clear_drops_pending_runs () =
  let store = Disjoint_store.create () in
  List.iter
    (fun a -> expect_inserted "run" (Disjoint_store.insert store a))
    [
      acc ~seq:1 ~line:1 ~op:"MPI_Get" 0 0 Access_kind.Rma_write;
      acc ~seq:2 ~line:1 ~op:"MPI_Get" 1 1 Access_kind.Rma_write;
      acc ~seq:3 ~line:2 ~op:"MPI_Put" 5000 5007 Access_kind.Rma_read;
    ];
  Alcotest.(check int) "one tree node plus the finger" 2 (Disjoint_store.size store);
  Disjoint_store.clear store;
  Alcotest.(check int) "clear drops the finger too" 0 (Disjoint_store.size store);
  Alcotest.(check bool) "to_list is empty" true (Disjoint_store.to_list store = []);
  Alcotest.(check bool) "fast-path invariants hold" true (Disjoint_store.self_check store);
  expect_inserted "store usable after clear"
    (Disjoint_store.insert store (acc ~seq:4 ~line:3 ~op:"MPI_Get" 9 9 Access_kind.Rma_write));
  Alcotest.(check int) "fresh run" 1 (Disjoint_store.size store)

let test_merge_off_disables_fast_path () =
  (* [~merge:false] forces the fast path off — coalescing IS a merge —
     so the ablation takes exactly the slow path, tree op for tree op. *)
  let stream =
    List.init 8 (fun i -> acc ~seq:(i + 1) ~line:2 ~op:"MPI_Get" i i Access_kind.Rma_write)
  in
  let feed store = List.iter (fun a -> ignore (Disjoint_store.insert store a)) stream in
  let no_merge = Disjoint_store.create ~merge:false () in
  feed no_merge;
  Alcotest.(check int) "no finger hits" 0 (Disjoint_store.finger_hits no_merge);
  Alcotest.(check int) "one node per access" 8 (Disjoint_store.size no_merge);
  let slow = Disjoint_store.create ~merge:false ~fast_path:false () in
  feed slow;
  Alcotest.(check int) "tree op count matches the explicit slow path"
    (Disjoint_store.stats slow).Store_intf.tree_ops
    (Disjoint_store.stats no_merge).Store_intf.tree_ops

let test_check_only_flushes_pending () =
  (* Regression: check_only with a run held by the finger must flush it
     first — the probe's verdict is computed against exactly the nodes
     the slow path would hold — without inserting the probe. *)
  let store = Disjoint_store.create () in
  adjacent_run ~n:6 store;
  (match
     Disjoint_store.check_only store (acc ~seq:50 ~line:9 ~op:"Store" 2 2 Access_kind.Local_write)
   with
  | Store_intf.Inserted -> Alcotest.fail "check_only missed the race against the finger run"
  | Store_intf.Race_detected { existing; _ } ->
      Alcotest.(check bool) "existing is the flushed hull" true
        (Interval.equal existing.Access.interval (Interval.make ~lo:0 ~hi:5)));
  Alcotest.(check int) "probe was not inserted" 1 (Disjoint_store.size store);
  Alcotest.(check bool) "fast-path invariants hold" true (Disjoint_store.self_check store);
  (* The run now lives in the tree: the next adjacent access merges
     through the slow path instead of extending a finger. *)
  adjacent_run ~n:1 ~lo0:6 ~seq0:7 store;
  Alcotest.(check int) "no finger left to extend" 5 (Disjoint_store.finger_hits store);
  Alcotest.(check int) "merged into the flushed run" 1 (Disjoint_store.size store)

let test_race_straddles_pending_flush () =
  (* Regression: seeding the finger with run B moves run A into the
     tree; a conflict on run A then races against that tree node while
     the finger keeps holding run B — final state identical to the slow
     path. *)
  let conflict = acc ~seq:20 ~line:5 ~op:"Store" 1 1 Access_kind.Local_write in
  let feed store =
    adjacent_run ~n:4 ~line:1 store;
    adjacent_run ~n:4 ~lo0:5000 ~seq0:10 store;
    match Disjoint_store.insert store conflict with
    | Store_intf.Inserted -> Alcotest.fail "straddling conflict not flagged"
    | Store_intf.Race_detected { existing; _ } -> existing
  in
  let store = Disjoint_store.create () in
  let existing = feed store in
  Alcotest.(check bool) "race names the coalesced run" true
    (Interval.equal existing.Access.interval (Interval.make ~lo:0 ~hi:3));
  Alcotest.(check bool) "fast-path invariants hold" true (Disjoint_store.self_check store);
  adjacent_run ~n:1 ~lo0:5004 ~seq0:21 store;
  Alcotest.(check int) "the finger still holds run B" 7 (Disjoint_store.finger_hits store);
  let reference = Disjoint_store.create ~fast_path:false () in
  let existing_ref = feed reference in
  adjacent_run ~n:1 ~lo0:5004 ~seq0:21 reference;
  Alcotest.(check bool) "finger and slow path name the same node" true
    (Access.equal existing existing_ref);
  Disjoint_store.flush_finger store;
  Alcotest.(check bool) "final interval sets agree" true
    (List.equal Access.equal (Disjoint_store.to_list reference) (Disjoint_store.to_list store))

let test_recorder_sees_precoalesce_origins () =
  (* Regression: coalescing must not hide origins from the flight
     recorder, and the epoch counter must advance under note_epoch even
     with a run held by the finger. *)
  Flight_recorder.enable ();
  Fun.protect ~finally:Flight_recorder.disable (fun () ->
      let store = Disjoint_store.create () in
      adjacent_run ~n:5 ~lo0:0 ~line:2 store;
      Disjoint_store.note_epoch store;
      adjacent_run ~n:3 ~lo0:10 ~line:3 store;
      let ring = Option.get (Disjoint_store.recorder store) in
      let origins = Flight_recorder.history ring (Interval.make ~lo:min_int ~hi:max_int) in
      Alcotest.(check int) "every pre-coalesce origin recorded" 8 (List.length origins);
      Alcotest.(check int) "epoch advanced with a finger run" 1
        (Flight_recorder.current_epoch ring);
      let epochs =
        List.map
          (fun (o : Flight_recorder.origin) -> o.Flight_recorder.epoch)
          origins
      in
      Alcotest.(check (list int)) "origins stamped with their insert epoch"
        [ 0; 0; 0; 0; 0; 1; 1; 1 ] epochs;
      let hits = Flight_recorder.history ring (Interval.make ~lo:2 ~hi:2) in
      Alcotest.(check int) "history pinpoints the one contributing origin" 1 (List.length hits))

(* The CFD-Proxy halo shape (§4.2, Figure 8b): a run of adjacent 8-byte
   pack stores is interrupted by a far-away remote Put, which flushes the
   run's head into the tree; the run then continues next to its own head.
   A Put reading the head leaves a non-mergeable node, and a second run
   starts next to it. *)
let halo_stream =
  let base = 65_536 in
  let store ~seq ~line i =
    acc ~seq ~line ~op:"Store" (base + (8 * i)) (base + (8 * i) + 7) Access_kind.Local_write
  in
  List.concat
    [
      List.init 400 (fun i -> store ~seq:(i + 1) ~line:302 i);
      [
        acc ~issuer:1 ~seq:401 ~line:318 ~op:"MPI_Put" 1_000_000 1_000_007
          Access_kind.Rma_write;
      ];
      List.init 200 (fun i -> store ~seq:(402 + i) ~line:302 (400 + i));
      [ acc ~seq:602 ~line:318 ~op:"MPI_Put" base (base + 63) Access_kind.Rma_read ];
      List.init 100 (fun i -> store ~seq:(603 + i) ~line:330 (-1 - i));
    ]

let same_verdict a b =
  match (a, b) with
  | Store_intf.Inserted, Store_intf.Inserted -> true
  | ( Store_intf.Race_detected { existing = e1; incoming = i1 },
      Store_intf.Race_detected { existing = e2; incoming = i2 } ) ->
      Access.equal e1 e2 && Access.equal i1 i2
  | _ -> false

let test_halo_runs_stay_on_the_finger () =
  (* Regression: once the remote Put flushed the run's head, every later
     store of the run, and of a run next to a non-mergeable node, took the
     slow path (stab, remove, insert). With the slow path handing its
     single merged node to the finger, six inserts miss it: the first
     store (a seed), the remote Put (a seed), the first store after the
     Put, the head read, the first store of the second run (two pieces:
     it abuts the read) and its second store (handed to the finger). *)
  let feed ?(check = true) store =
    List.map
      (fun a ->
        let v = Disjoint_store.insert store a in
        if check && not (Disjoint_store.self_check store) then
          Alcotest.failf "fast-path invariants violated after seq %d" a.Access.seq;
        v)
      halo_stream
  in
  let reference = Disjoint_store.create ~fast_path:false () in
  let ref_verdicts = feed reference in
  let store = Disjoint_store.create () in
  let verdicts = feed store in
  Alcotest.(check bool) "no access races" true
    (List.for_all (fun v -> not (is_race v)) verdicts);
  Alcotest.(check bool) "verdicts equal the slow path" true
    (List.equal same_verdict ref_verdicts verdicts);
  Alcotest.(check bool) "stored contents equal the slow path" true
    (List.equal Access.equal (Disjoint_store.to_list reference) (Disjoint_store.to_list store));
  let ref_stats = Disjoint_store.stats reference and stats = Disjoint_store.stats store in
  Alcotest.(check bool) "statistics other than tree_ops equal the slow path" true
    ({ ref_stats with Store_intf.tree_ops = 0 } = { stats with Store_intf.tree_ops = 0 });
  (* [self_check] descends the tree itself, so count tree ops on a store
     fed without it. *)
  let unchecked = Disjoint_store.create () in
  ignore (feed ~check:false unchecked);
  let inserts = List.length halo_stream in
  Alcotest.(check bool) "all but six inserts hit the finger" true
    (Disjoint_store.finger_hits unchecked >= inserts - 6);
  Alcotest.(check bool) "tree ops stay under the ceiling" true
    ((Disjoint_store.stats unchecked).Store_intf.tree_ops <= 40)

(* --- Properties. --- *)

let access_gen =
  QCheck.Gen.(
    let* lo = int_range 0 100 in
    let* len = int_range 1 20 in
    let* k = int_range 0 3 in
    let* line = int_range 1 5 in
    let* issuer = int_range 0 2 in
    return (lo, len, k, line, issuer))

let arb_program =
  QCheck.make
    ~print:(fun l ->
      String.concat ";"
        (List.map (fun (lo, len, k, line, p) -> Printf.sprintf "(%d,%d,%d,%d,%d)" lo len k line p) l))
    QCheck.Gen.(list_size (int_range 1 60) access_gen)

let build_accesses ?(single_issuer = false) program =
  List.mapi
    (fun i (lo, len, k, line, issuer) ->
      let kind = List.nth Access_kind.all k in
      (* Local accesses always belong to the owning process (rank 0): a
         process's BST only ever records its own loads and stores plus
         remote RMA accesses, never another process's locals. *)
      let issuer = if single_issuer || Access_kind.is_local kind then 0 else issuer in
      acc ~issuer ~seq:(i + 1) ~line ~op:"op" lo (lo + len - 1) kind)
    program

let feed_disjoint store accesses =
  List.iter (fun a -> ignore (Disjoint_store.insert store a)) accesses

let prop_disjoint_invariant =
  QCheck.Test.make ~name:"intervals stay pairwise disjoint" ~count:300 arb_program
    (fun program ->
      let store = Disjoint_store.create () in
      feed_disjoint store (build_accesses program);
      let rec pairwise_disjoint = function
        | a :: (b :: _ as rest) ->
            Interval.hi a.Access.interval < Interval.lo b.Access.interval && pairwise_disjoint rest
        | _ -> true
      in
      pairwise_disjoint (Disjoint_store.to_list store))

let prop_coverage_preserved =
  QCheck.Test.make ~name:"inserted bytes stay covered" ~count:300 arb_program
    (fun program ->
      let accesses = build_accesses program in
      let store = Disjoint_store.create () in
      let covered = Hashtbl.create 64 in
      List.iter
        (fun a ->
          match Disjoint_store.insert store a with
          | Store_intf.Inserted ->
              for b = Interval.lo a.Access.interval to Interval.hi a.Access.interval do
                Hashtbl.replace covered b ()
              done
          | Store_intf.Race_detected _ -> ())
        accesses;
      let store_covers b =
        List.exists (fun a -> Interval.contains a.Access.interval b) (Disjoint_store.to_list store)
      in
      Hashtbl.fold (fun b () ok -> ok && store_covers b) covered true)

let prop_strongest_kind_preserved =
  QCheck.Test.make ~name:"dominant kind per byte never weakens" ~count:300 arb_program
    (fun program ->
      let accesses = build_accesses program in
      let store = Disjoint_store.create () in
      let strongest = Hashtbl.create 64 in
      List.iter
        (fun a ->
          match Disjoint_store.insert store a with
          | Store_intf.Inserted ->
              for b = Interval.lo a.Access.interval to Interval.hi a.Access.interval do
                let s = Access_kind.strength a.Access.kind in
                let cur = Option.value (Hashtbl.find_opt strongest b) ~default:(-1) in
                if s > cur then Hashtbl.replace strongest b s
              done
          | Store_intf.Race_detected _ -> ())
        accesses;
      let kind_at b =
        List.find_map
          (fun a ->
            if Interval.contains a.Access.interval b then Some (Access_kind.strength a.Access.kind)
            else None)
          (Disjoint_store.to_list store)
      in
      Hashtbl.fold
        (fun b expected ok ->
          ok && match kind_at b with None -> false | Some s -> s >= expected)
        strongest true)

let prop_contribution_at_least_as_precise_as_legacy =
  (* Every race legacy reports on single-issuer programs is also reported
     by the contribution, except the order-insensitivity false positives
     (local access followed by RMA). *)
  QCheck.Test.make ~name:"no legacy-only true races" ~count:300 arb_program
    (fun program ->
      (* Single-issuer programs: with several issuers the Table 1
         dominance rule itself can absorb a local write into a stronger
         RMA fragment and hide it from later cross-process checks — an
         imprecision inherited from the paper, covered by its own unit
         test below. *)
      let accesses = build_accesses ~single_issuer:true program in
      let legacy = Legacy_store.create () in
      let contribution = Disjoint_store.create () in
      let legacy_races = ref [] and contribution_races = ref [] in
      List.iter
        (fun a ->
          (match Legacy_store.insert legacy a with
          | Store_intf.Race_detected { existing; incoming } ->
              legacy_races := (existing, incoming) :: !legacy_races
          | Store_intf.Inserted -> ());
          match Disjoint_store.insert contribution a with
          | Store_intf.Race_detected { existing; incoming } ->
              contribution_races := (existing, incoming) :: !contribution_races
          | Store_intf.Inserted -> ())
        accesses;
      (* Once either store reports a race the two diverge, so only compare
         up to the first contribution-reported race. *)
      match (!legacy_races, !contribution_races) with
      | [], _ -> true
      | (existing, incoming) :: _, [] ->
          (* Legacy-only report must be an order-insensitivity artefact:
             local first, RMA second, same process. *)
          Access_kind.is_local existing.Access.kind
          && Access_kind.is_rma incoming.Access.kind
          && Access.same_issuer existing incoming
      | _ :: _, _ :: _ -> true)

let prop_fragmentation_only_also_disjoint =
  QCheck.Test.make ~name:"merge-off store is still disjoint" ~count:200 arb_program
    (fun program ->
      let store = Disjoint_store.create ~merge:false () in
      feed_disjoint store (build_accesses program);
      let rec pairwise_disjoint = function
        | a :: (b :: _ as rest) ->
            Interval.hi a.Access.interval < Interval.lo b.Access.interval && pairwise_disjoint rest
        | _ -> true
      in
      pairwise_disjoint (Disjoint_store.to_list store))

let prop_merge_never_increases_nodes =
  QCheck.Test.make ~name:"merged store never larger than merge-off store" ~count:200 arb_program
    (fun program ->
      let accesses = build_accesses program in
      let merged = Disjoint_store.create () in
      let unmerged = Disjoint_store.create ~merge:false () in
      feed_disjoint merged accesses;
      feed_disjoint unmerged accesses;
      Disjoint_store.size merged <= Disjoint_store.size unmerged)

let suite =
  [
    Alcotest.test_case "legacy misses the Code 1 race (Fig 5a)" `Quick test_legacy_misses_code1_race;
    Alcotest.test_case "contribution detects the Code 1 race" `Quick
      test_contribution_detects_code1_race;
    Alcotest.test_case "Code 1 report names the MPI_Put" `Quick test_code1_race_report_points_at_put;
    Alcotest.test_case "fragmentation-only tree matches Figure 5b" `Quick
      test_fragmentation_only_matches_figure_5b;
    Alcotest.test_case "merging collapses the Code 1 fragments" `Quick
      test_merging_collapses_code1_put;
    Alcotest.test_case "legacy Code 2 node explosion (Fig 8b)" `Quick
      test_legacy_code2_node_explosion;
    Alcotest.test_case "contribution Code 2 merges to two nodes" `Quick
      test_contribution_code2_merges_to_two_nodes;
    Alcotest.test_case "Code 2 trailing duplicate Get races" `Quick
      test_contribution_code2_final_get_races;
    Alcotest.test_case "merge requires equal debug info" `Quick test_merge_requires_same_debug_info;
    Alcotest.test_case "merge requires equal kind" `Quick test_merge_requires_same_kind;
    Alcotest.test_case "merge chains when a gap is filled" `Quick test_merge_chains_across_gap_filling;
    Alcotest.test_case "order-aware flag" `Quick test_order_aware_flag;
    Alcotest.test_case "racy access is not recorded" `Quick test_race_not_inserted;
    Alcotest.test_case "clear keeps cumulative stats" `Quick test_clear_keeps_cumulative_stats;
    Alcotest.test_case "dominance absorption imprecision (pinned)" `Quick
      test_dominance_absorption_imprecision;
    Alcotest.test_case "finger cache absorbs an adjacent run" `Quick test_finger_absorbs_adjacent_run;
    Alcotest.test_case "overlap after a run flushes and races" `Quick
      test_overlap_after_run_flushes_and_races;
    Alcotest.test_case "clear drops pending runs" `Quick test_clear_drops_pending_runs;
    Alcotest.test_case "merge-off disables the fast path" `Quick test_merge_off_disables_fast_path;
    Alcotest.test_case "check_only flushes the pending buffer" `Quick
      test_check_only_flushes_pending;
    Alcotest.test_case "race straddling a pending flush" `Quick test_race_straddles_pending_flush;
    Alcotest.test_case "recorder sees pre-coalesce origins" `Quick
      test_recorder_sees_precoalesce_origins;
    Alcotest.test_case "interrupted halo runs stay on the finger" `Quick
      test_halo_runs_stay_on_the_finger;
    QCheck_alcotest.to_alcotest prop_disjoint_invariant;
    QCheck_alcotest.to_alcotest prop_coverage_preserved;
    QCheck_alcotest.to_alcotest prop_strongest_kind_preserved;
    QCheck_alcotest.to_alcotest prop_contribution_at_least_as_precise_as_legacy;
    QCheck_alcotest.to_alcotest prop_fragmentation_only_also_disjoint;
    QCheck_alcotest.to_alcotest prop_merge_never_increases_nodes;
  ]
