open Rma_access

let dbg ?(file = "test.c") ?(op = "op") line = Debug_info.make ~file ~line ~operation:op

let acc ?(issuer = 0) ?(seq = 0) ?(line = 1) ?(op = "op") lo hi kind =
  Access.make ~interval:(Interval.make ~lo ~hi) ~kind ~issuer ~seq ~debug:(dbg ~op line)

let kind = Alcotest.testable Access_kind.pp Access_kind.equal

let test_kind_predicates () =
  let open Access_kind in
  Alcotest.(check bool) "put target is rma write" true (is_rma Rma_write && is_write Rma_write);
  Alcotest.(check bool) "load is local read" true (is_local Local_read && not (is_write Local_read));
  Alcotest.(check bool) "store is local write" true (is_local Local_write && is_write Local_write);
  Alcotest.(check bool) "get target is rma read" true (is_rma Rma_read && not (is_write Rma_read))

let test_strength_ordering () =
  (* Table 1: RMA prevails over local, WRITE over READ. *)
  let open Access_kind in
  Alcotest.(check bool) "rma_w strongest" true (strength Rma_write > strength Rma_read);
  Alcotest.(check bool) "rma_r beats local_w" true (strength Rma_read > strength Local_write);
  Alcotest.(check bool) "local_w beats local_r" true (strength Local_write > strength Local_read)

let test_combine_table1 () =
  (* Every non-race cell of Table 1 resulting access type: the kind of
     the fragment [Access.dominate] builds from an older and a newer
     access over their intersection. *)
  let open Access_kind in
  let combine older newer =
    let iv = Interval.make ~lo:0 ~hi:7 in
    (Access.dominate ~older:(acc ~seq:1 0 7 older) ~newer:(acc ~seq:2 0 7 newer) iv).Access.kind
  in
  Alcotest.check kind "LR+LW" Local_write (combine Local_read Local_write);
  Alcotest.check kind "LW+LR" Local_write (combine Local_write Local_read);
  Alcotest.check kind "LR+RR" Rma_read (combine Local_read Rma_read);
  Alcotest.check kind "LW+RR" Rma_read (combine Local_write Rma_read);
  Alcotest.check kind "LR+RW" Rma_write (combine Local_read Rma_write);
  Alcotest.check kind "RR+LR" Rma_read (combine Rma_read Local_read);
  Alcotest.check kind "same kind" Local_read (combine Local_read Local_read)

let test_dominate_keeps_winner_debug () =
  (* The debug info of the resulting fragment follows the access whose
     kind dominates (Table 1). *)
  let older = acc ~seq:1 ~line:10 ~op:"MPI_Put" 2 12 Access_kind.Rma_read in
  let newer = acc ~seq:2 ~line:20 ~op:"Load" 4 4 Access_kind.Local_read in
  let result = Access.dominate ~older ~newer (Interval.make ~lo:4 ~hi:4) in
  Alcotest.check kind "kind is rma_read" Access_kind.Rma_read result.Access.kind;
  Alcotest.(check int) "debug follows winner" 10 result.Access.debug.Debug_info.line

let test_dominate_tie_keeps_most_recent () =
  (* "if both accesses have the same access type, the debug information
     of the most recent access is kept" (§4.1). *)
  let older = acc ~seq:1 ~line:10 0 7 Access_kind.Rma_read in
  let newer = acc ~seq:2 ~line:20 4 9 Access_kind.Rma_read in
  let result = Access.dominate ~older ~newer (Interval.make ~lo:4 ~hi:7) in
  Alcotest.(check int) "most recent debug" 20 result.Access.debug.Debug_info.line;
  Alcotest.(check int) "most recent seq" 2 result.Access.seq

let test_mergeable () =
  let a = acc ~issuer:1 ~seq:1 ~line:5 ~op:"MPI_Get" 0 3 Access_kind.Rma_write in
  let b = acc ~issuer:1 ~seq:2 ~line:5 ~op:"MPI_Get" 4 7 Access_kind.Rma_write in
  Alcotest.(check bool) "same kind+debug merge" true (Access.mergeable a b);
  let c = { b with Access.debug = dbg ~op:"MPI_Get" 6 } in
  Alcotest.(check bool) "different line blocks merge" false (Access.mergeable a c);
  let d = { b with Access.kind = Access_kind.Rma_read } in
  Alcotest.(check bool) "different kind blocks merge" false (Access.mergeable a d);
  let e = { b with Access.issuer = 2 } in
  Alcotest.(check bool) "different issuer blocks merge" false (Access.mergeable a e)

(* Race rule: the Figure 3 matrix. *)

let races_aware ~same_process first second =
  let issuer2 = if same_process then 0 else 1 in
  let a = acc ~issuer:0 ~seq:1 0 7 first in
  let b = acc ~issuer:issuer2 ~seq:2 4 9 second in
  Race_rule.races ~order_aware:true ~existing:a ~incoming:b

let races_legacy ~same_process first second =
  let issuer2 = if same_process then 0 else 1 in
  let a = acc ~issuer:0 ~seq:1 0 7 first in
  let b = acc ~issuer:issuer2 ~seq:2 4 9 second in
  Race_rule.races ~order_aware:false ~existing:a ~incoming:b

let test_race_same_process () =
  let open Access_kind in
  (* RMA then local: racy when one is a write (Figure 2a). *)
  Alcotest.(check bool) "get then load on origin buffer" true
    (races_aware ~same_process:true Rma_write Local_read);
  Alcotest.(check bool) "put-origin-read then store" true
    (races_aware ~same_process:true Rma_read Local_write);
  Alcotest.(check bool) "rma read then local read safe" false
    (races_aware ~same_process:true Rma_read Local_read);
  (* Local then RMA: program order protects it (§5.2). *)
  Alcotest.(check bool) "load then get safe" false
    (races_aware ~same_process:true Local_read Rma_write);
  Alcotest.(check bool) "store then put safe" false
    (races_aware ~same_process:true Local_write Rma_read);
  (* RMA then RMA within an epoch is unordered. *)
  Alcotest.(check bool) "two puts overlap" true
    (races_aware ~same_process:true Rma_write Rma_write);
  Alcotest.(check bool) "put then get" true (races_aware ~same_process:true Rma_read Rma_write);
  Alcotest.(check bool) "two origin reads safe" false
    (races_aware ~same_process:true Rma_read Rma_read);
  (* Two local accesses are ordered by program order. *)
  Alcotest.(check bool) "load then store safe" false
    (races_aware ~same_process:true Local_read Local_write)

let test_race_cross_process () =
  let open Access_kind in
  (* No order between processes: every RMA+WRITE combination races. *)
  Alcotest.(check bool) "local write then remote read" true
    (races_aware ~same_process:false Local_write Rma_read);
  Alcotest.(check bool) "remote write then local read" true
    (races_aware ~same_process:false Rma_write Local_read);
  Alcotest.(check bool) "remote reads safe" false
    (races_aware ~same_process:false Rma_read Rma_read);
  Alcotest.(check bool) "two remote puts" true
    (races_aware ~same_process:false Rma_write Rma_write)

let test_legacy_order_insensitive () =
  let open Access_kind in
  (* Legacy flags Load-then-MPI_Get like MPI_Get-then-Load: the Table 2
     ll_load_get_inwindow_origin_safe false positive. *)
  Alcotest.(check bool) "legacy flags local-then-rma" true
    (races_legacy ~same_process:true Local_read Rma_write);
  Alcotest.(check bool) "aware does not" false
    (races_aware ~same_process:true Local_read Rma_write)

let test_no_race_without_overlap () =
  let a = acc ~issuer:0 ~seq:1 0 3 Access_kind.Rma_write in
  let b = acc ~issuer:1 ~seq:2 4 9 Access_kind.Rma_write in
  Alcotest.(check bool) "disjoint intervals never race" false
    (Race_rule.races ~order_aware:true ~existing:a ~incoming:b)

(* Exhaustive property: the order-aware rule equals the declarative
   Figure 3 specification on every kind pair / process combination. *)
let prop_matrix_matches_spec =
  let spec ~same_process first second =
    let open Access_kind in
    let has_rma = is_rma first || is_rma second in
    let has_write = is_write first || is_write second in
    let both_local = is_local first && is_local second in
    if both_local || not has_rma || not has_write then false
    else if same_process && is_local first && is_rma second then false
    else true
  in
  QCheck.Test.make ~name:"order-aware rule matches Figure 3 spec" ~count:200
    QCheck.(triple (int_range 0 3) (int_range 0 3) bool)
    (fun (i, j, same_process) ->
      let nth n = List.nth Access_kind.all n in
      let first = nth i and second = nth j in
      let issuer2 = if same_process then 0 else 1 in
      let a = acc ~issuer:0 ~seq:1 0 7 first in
      let b = acc ~issuer:issuer2 ~seq:2 4 9 second in
      Race_rule.races ~order_aware:true ~existing:a ~incoming:b
      = spec ~same_process first second)

let suite =
  [
    Alcotest.test_case "kind predicates" `Quick test_kind_predicates;
    Alcotest.test_case "strength ordering" `Quick test_strength_ordering;
    Alcotest.test_case "combine follows Table 1" `Quick test_combine_table1;
    Alcotest.test_case "dominate keeps winner debug info" `Quick test_dominate_keeps_winner_debug;
    Alcotest.test_case "dominate tie keeps most recent" `Quick test_dominate_tie_keeps_most_recent;
    Alcotest.test_case "mergeable preconditions" `Quick test_mergeable;
    Alcotest.test_case "race rule within a process" `Quick test_race_same_process;
    Alcotest.test_case "race rule across processes" `Quick test_race_cross_process;
    Alcotest.test_case "legacy order insensitivity" `Quick test_legacy_order_insensitive;
    Alcotest.test_case "no race without overlap" `Quick test_no_race_without_overlap;
    QCheck_alcotest.to_alcotest prop_matrix_matches_spec;
  ]
