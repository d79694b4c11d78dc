open Rma_access
open Rma_store

(* The §6(3) future-work extension: strided (non-adjacent) merging. *)

let dbg ?(file = "strided.c") ?(op = "op") line = Debug_info.make ~file ~line ~operation:op

let acc ?(issuer = 0) ~seq ?(line = 1) ?(op = "op") lo hi kind =
  Access.make ~interval:(Interval.make ~lo ~hi) ~kind ~issuer ~seq ~debug:(dbg ~op line)

let is_race = function Store_intf.Race_detected _ -> true | Store_intf.Inserted -> false

let insert_all store accesses =
  List.map (Strided_store.insert store) accesses

let minivite_like_stream ~n ~stride ~len =
  (* Equally-shaped Gets at a constant stride — MiniVite's record reads. *)
  List.init n (fun i ->
      acc ~seq:(i + 1) ~line:501 ~op:"MPI_Get" (i * stride)
        ((i * stride) + len - 1)
        Access_kind.Rma_read)

let test_strided_stream_collapses () =
  let store = Strided_store.create () in
  let outcomes = insert_all store (minivite_like_stream ~n:1000 ~stride:16 ~len:8) in
  Alcotest.(check bool) "no races" true (List.for_all (fun o -> not (is_race o)) outcomes);
  Alcotest.(check int) "one region" 1 (Strided_store.size store);
  match Strided_store.regions store with
  | [ r ] ->
      Alcotest.(check int) "stride" 16 r.Strided_store.stride;
      Alcotest.(check int) "count" 1000 r.Strided_store.count;
      Alcotest.(check int) "len" 8 r.Strided_store.len;
      Alcotest.(check int) "covered bytes" 8000 (r.Strided_store.count * r.Strided_store.len)
  | _ -> Alcotest.fail "expected one region"

let test_dense_stream_is_stride_len () =
  (* Adjacent accesses are the stride = len special case (plain merging). *)
  let store = Strided_store.create () in
  let _ = insert_all store (minivite_like_stream ~n:100 ~stride:8 ~len:8) in
  Alcotest.(check int) "one region" 1 (Strided_store.size store);
  match Strided_store.regions store with
  | [ r ] -> Alcotest.(check int) "dense stride" 8 r.Strided_store.stride
  | _ -> Alcotest.fail "expected one region"

let test_gap_access_coexists () =
  (* An access landing in a gap is NOT part of the region and must not
     be absorbed (gaps are uncovered). *)
  let store = Strided_store.create () in
  let _ = insert_all store (minivite_like_stream ~n:10 ~stride:16 ~len:8) in
  let gap = acc ~seq:100 ~line:9 ~op:"Store" 8 15 Access_kind.Local_write in
  Alcotest.(check bool) "gap insert ok" false (is_race (Strided_store.insert store gap));
  Alcotest.(check int) "region + gap node" 2 (Strided_store.size store)

let test_gap_write_no_false_race () =
  (* The region is RMA_Read; a local write in a gap touches no covered
     byte — flagging it would be a false positive. *)
  let store = Strided_store.create () in
  let _ = insert_all store (minivite_like_stream ~n:10 ~stride:16 ~len:8) in
  let outcome =
    Strided_store.insert store (acc ~seq:50 ~line:7 ~op:"Store" 10 13 Access_kind.Local_write)
  in
  Alcotest.(check bool) "no race on gap bytes" false (is_race outcome)

let test_covered_byte_race_detected () =
  (* A conflicting access on a covered element must still race, even
     deep inside the region. *)
  let store = Strided_store.create () in
  let _ = insert_all store (minivite_like_stream ~n:100 ~stride:16 ~len:8) in
  let outcome =
    Strided_store.insert store
      (acc ~issuer:1 ~seq:999 ~line:8 ~op:"MPI_Put" 803 805 Access_kind.Rma_write)
  in
  (* 803 is inside element 50 ([800..807]). *)
  Alcotest.(check bool) "race detected" true (is_race outcome)

let test_stride_requires_same_shape () =
  let store = Strided_store.create () in
  ignore (Strided_store.insert store (acc ~seq:1 ~line:5 ~op:"MPI_Get" 0 7 Access_kind.Rma_read));
  (* Different length: no region extension. *)
  ignore (Strided_store.insert store (acc ~seq:2 ~line:5 ~op:"MPI_Get" 16 19 Access_kind.Rma_read));
  Alcotest.(check int) "two regions" 2 (Strided_store.size store)

let test_stride_requires_same_debug () =
  let store = Strided_store.create () in
  ignore (Strided_store.insert store (acc ~seq:1 ~line:5 ~op:"MPI_Get" 0 7 Access_kind.Rma_read));
  ignore (Strided_store.insert store (acc ~seq:2 ~line:6 ~op:"MPI_Get" 16 23 Access_kind.Rma_read));
  Alcotest.(check int) "two regions" 2 (Strided_store.size store)

let test_irregular_position_starts_new_region () =
  let store = Strided_store.create () in
  let _ = insert_all store (minivite_like_stream ~n:5 ~stride:16 ~len:8) in
  (* Next slot would be 80; 96 breaks the stride. *)
  ignore (Strided_store.insert store (acc ~seq:50 ~line:501 ~op:"MPI_Get" 96 103 Access_kind.Rma_read));
  Alcotest.(check int) "second region opens" 2 (Strided_store.size store)

let test_exact_repeat_falls_back_without_explosion_of_races () =
  (* Re-reading the same covered element (same kind) is race-free; the
     store must absorb it via the fallback path. *)
  let store = Strided_store.create () in
  let _ = insert_all store (minivite_like_stream ~n:10 ~stride:16 ~len:8) in
  let outcome =
    Strided_store.insert store (acc ~issuer:2 ~seq:77 ~line:501 ~op:"MPI_Get" 32 39 Access_kind.Rma_read)
  in
  Alcotest.(check bool) "repeat read safe" false (is_race outcome)

let test_extension_never_tunnels_under_covered_bytes () =
  (* Regression (QCHECK_SEED=11 shrinkage of the oracle property): an
     access that is a legal stride continuation of one region may ALSO
     land on bytes another region already covers. Extending then records
     those bytes twice — the new element plus the stale other region —
     and the stale copy later produces a false race. The extension fast
     path must yield to the fragmentation fallback whenever any region
     covers part of the incoming interval. *)
  let store = Strided_store.create () in
  (* Seed region: a Get at [9..14] (len 6). *)
  ignore (Strided_store.insert store (acc ~seq:1 ~line:3 ~op:"MPI_Get" 9 14 Access_kind.Rma_read));
  (* Unrelated local write claims [39..53]. *)
  ignore
    (Strided_store.insert store (acc ~seq:2 ~line:4 ~op:"Store" 39 53 Access_kind.Local_write));
  (* Same shape and debug info as the seed Get, 39 bytes later: a valid
     stride-2 continuation, but [48..53] sits inside the local write. *)
  Alcotest.(check bool) "overlapping continuation inserts" false
    (is_race (Strided_store.insert store (acc ~seq:3 ~line:3 ~op:"MPI_Get" 48 53 Access_kind.Rma_read)));
  (* The Get dominates those bytes now; a second remote read of them is
     race-free. Before the fix the stale LOCAL_WRITE copy flagged it. *)
  Alcotest.(check bool) "re-read of absorbed bytes safe" false
    (is_race
       (Strided_store.insert store
          (acc ~issuer:2 ~seq:4 ~line:4 ~op:"MPI_Get" 48 52 Access_kind.Rma_read)))

let test_order_aware_in_strided () =
  let store = Strided_store.create () in
  ignore (Strided_store.insert store (acc ~seq:1 ~line:1 ~op:"Load" 0 7 Access_kind.Local_read));
  Alcotest.(check bool) "local-then-rma safe" false
    (is_race (Strided_store.insert store (acc ~seq:2 ~line:2 ~op:"MPI_Get" 0 7 Access_kind.Rma_write)));
  let blind = Strided_store.create ~order_aware:false () in
  ignore (Strided_store.insert blind (acc ~seq:1 ~line:1 ~op:"Load" 0 7 Access_kind.Local_read));
  Alcotest.(check bool) "order-blind flags" true
    (is_race (Strided_store.insert blind (acc ~seq:2 ~line:2 ~op:"MPI_Get" 0 7 Access_kind.Rma_write)))

(* Property: the strided store agrees with the plain disjoint store on
   race verdicts for random single-issuer streams. *)
let access_gen =
  QCheck.Gen.(
    let* lo = int_range 0 120 in
    let* len = int_range 1 12 in
    let* k = int_range 0 3 in
    let* line = int_range 1 4 in
    return (lo, len, k, line))

let arb_program =
  QCheck.make
    ~print:(fun l ->
      String.concat ";" (List.map (fun (lo, len, k, line) -> Printf.sprintf "(%d,%d,%d,%d)" lo len k line) l))
    QCheck.Gen.(list_size (int_range 1 40) access_gen)

let prop_verdicts_agree_with_disjoint =
  QCheck.Test.make ~name:"strided verdicts match disjoint store (first race)" ~count:300
    arb_program
    (fun program ->
      let accesses =
        List.mapi
          (fun i (lo, len, k, line) ->
            acc ~seq:(i + 1) ~line lo (lo + len - 1) (List.nth Access_kind.all k))
          program
      in
      let d = Disjoint_store.create () in
      let s = Strided_store.create () in
      let rec first_race insert = function
        | [] -> None
        | a :: rest -> (
            match insert a with
            | Store_intf.Race_detected _ -> Some a.Access.seq
            | Store_intf.Inserted -> first_race insert rest)
      in
      first_race (Disjoint_store.insert d) accesses
      = first_race (Strided_store.insert s) accesses)

let prop_coverage_preserved =
  (* Race-relevant soundness: every byte recorded as covered by the
     plain disjoint store is also covered by some region element in the
     strided store (gaps may only appear where nothing was inserted).
     Node-count-wise the strided store can be slightly larger on
     adversarial random overlap streams — its win is on disciplined
     strided patterns — so we do not compare sizes here. *)
  QCheck.Test.make ~name:"strided store covers every inserted byte" ~count:200 arb_program
    (fun program ->
      (* Only read accesses: race-free by construction. *)
      let accesses =
        List.mapi
          (fun i (lo, len, _, line) ->
            acc ~seq:(i + 1) ~line lo (lo + len - 1) Access_kind.Local_read)
          program
      in
      let s = Strided_store.create () in
      List.iter (fun a -> ignore (Strided_store.insert s a)) accesses;
      (* A region covers its elements' bytes, not the gaps between. *)
      let covers (r : Strided_store.region) byte =
        let off = byte - r.Strided_store.base in
        off >= 0
        && off / r.Strided_store.stride < r.Strided_store.count
        && off mod r.Strided_store.stride < r.Strided_store.len
      in
      let covered byte = List.exists (fun r -> covers r byte) (Strided_store.regions s) in
      List.for_all
        (fun a ->
          let iv = a.Access.interval in
          let rec all b = b > Interval.hi iv || (covered b && all (b + 1)) in
          all (Interval.lo iv))
        accesses)

let suite =
  [
    Alcotest.test_case "strided stream collapses to one region" `Quick test_strided_stream_collapses;
    Alcotest.test_case "dense stream is the stride=len case" `Quick test_dense_stream_is_stride_len;
    Alcotest.test_case "gap access coexists" `Quick test_gap_access_coexists;
    Alcotest.test_case "gap write is not a false race" `Quick test_gap_write_no_false_race;
    Alcotest.test_case "covered byte race detected" `Quick test_covered_byte_race_detected;
    Alcotest.test_case "stride requires same shape" `Quick test_stride_requires_same_shape;
    Alcotest.test_case "stride requires same debug info" `Quick test_stride_requires_same_debug;
    Alcotest.test_case "irregular position starts a new region" `Quick
      test_irregular_position_starts_new_region;
    Alcotest.test_case "exact repeat handled by fallback" `Quick
      test_exact_repeat_falls_back_without_explosion_of_races;
    Alcotest.test_case "extension never tunnels under covered bytes" `Quick
      test_extension_never_tunnels_under_covered_bytes;
    Alcotest.test_case "order awareness preserved" `Quick test_order_aware_in_strided;
    QCheck_alcotest.to_alcotest prop_verdicts_agree_with_disjoint;
    QCheck_alcotest.to_alcotest prop_coverage_preserved;
  ]

let test_strided_suite_score () =
  (* The extension keeps the contribution's perfect Table 3 score: gaps
     are uncovered, so no false positive sneaks in, and covered-byte
     checks keep every true positive. *)
  let tool =
    Rma_analysis.Rma_analyzer.create ~nprocs:3 ~mode:Rma_analysis.Tool.Collect
      Rma_analysis.Rma_analyzer.Strided_extension
  in
  let c = Rma_microbench.Runner.score ~tool Rma_microbench.Scenario.all in
  Alcotest.(check bool) "perfect score" true
    (c.Rma_microbench.Runner.fp = 0 && c.Rma_microbench.Runner.fn = 0
   && c.Rma_microbench.Runner.tp = 47 && c.Rma_microbench.Runner.tn = 107)

let suite = suite @ [ Alcotest.test_case "strided suite score" `Slow test_strided_suite_score ]
