open Rma_access
open Rma_vclock
open Rma_shadow

let dbg line = Debug_info.make ~file:"shadow.c" ~line ~operation:"op"

let standard_hb stamp clock = Vclock.stamp_observed stamp ~by:clock

let shadow () = Shadow.create ~happens_before:standard_hb ()

let iv lo hi = Interval.make ~lo ~hi

let record t ~thread ~clock ~kind ~line lo hi =
  Shadow.record_and_check t ~interval:(iv lo hi) ~thread ~clock ~kind ~issuer:thread
    ~debug:(dbg line)

let test_concurrent_write_write_races () =
  let t = shadow () in
  let c0 = Vclock.tick (Vclock.create ~nprocs:2) 0 in
  let c1 = Vclock.tick (Vclock.create ~nprocs:2) 1 in
  Alcotest.(check bool) "first clean" true
    (record t ~thread:0 ~clock:c0 ~kind:Access_kind.Local_write ~line:1 0 7 = None);
  Alcotest.(check bool) "concurrent write races" true
    (record t ~thread:1 ~clock:c1 ~kind:Access_kind.Rma_write ~line:2 4 11 <> None)

let test_ordered_accesses_safe () =
  let t = shadow () in
  let c0 = Vclock.tick (Vclock.create ~nprocs:2) 0 in
  ignore (record t ~thread:0 ~clock:c0 ~kind:Access_kind.Local_write ~line:1 0 7);
  (* Thread 1 learns thread 0's clock before accessing: ordered. *)
  let c1 = Vclock.tick (Vclock.merge (Vclock.create ~nprocs:2) c0) 1 in
  Alcotest.(check bool) "ordered write is safe" true
    (record t ~thread:1 ~clock:c1 ~kind:Access_kind.Rma_write ~line:2 0 7 = None)

let test_read_read_safe () =
  let t = shadow () in
  let c0 = Vclock.tick (Vclock.create ~nprocs:2) 0 in
  let c1 = Vclock.tick (Vclock.create ~nprocs:2) 1 in
  ignore (record t ~thread:0 ~clock:c0 ~kind:Access_kind.Local_read ~line:1 0 7);
  Alcotest.(check bool) "concurrent reads safe" true
    (record t ~thread:1 ~clock:c1 ~kind:Access_kind.Rma_read ~line:2 0 7 = None)

let test_same_thread_safe () =
  let t = shadow () in
  let c = ref (Vclock.create ~nprocs:1) in
  for i = 1 to 10 do
    c := Vclock.tick !c 0;
    Alcotest.(check bool) "same thread never races" true
      (record t ~thread:0 ~clock:!c ~kind:Access_kind.Local_write ~line:i 0 7 = None)
  done

let test_disjoint_bytes_safe () =
  let t = shadow () in
  let c0 = Vclock.tick (Vclock.create ~nprocs:2) 0 in
  let c1 = Vclock.tick (Vclock.create ~nprocs:2) 1 in
  ignore (record t ~thread:0 ~clock:c0 ~kind:Access_kind.Local_write ~line:1 0 3);
  (* Same 8-byte granule, disjoint bytes. *)
  Alcotest.(check bool) "same granule, no overlap" true
    (record t ~thread:1 ~clock:c1 ~kind:Access_kind.Rma_write ~line:2 4 7 = None)

(* The threads among [threads] whose cell still covers bytes [lo..hi]
   after [fill]. A shadow whose happens-before orders every cell but
   [probe]'s lets a write from a fresh thread race only with that cell,
   so the race tells whether it is held. *)
let live_cells ~fill ~threads lo hi =
  List.filter
    (fun probe ->
      let t = Shadow.create ~happens_before:(fun s _ -> s.Vclock.thread <> probe) () in
      fill t;
      record t ~thread:99 ~clock:Vclock.empty ~kind:Access_kind.Local_write ~line:99 lo hi <> None)
    threads

let test_eviction_bounded () =
  let clock thread = Vclock.tick (Vclock.create ~nprocs:8) thread in
  let fill t =
    for thread = 0 to 5 do
      ignore (record t ~thread ~clock:(clock thread) ~kind:Access_kind.Local_read ~line:thread 0 7)
    done
  in
  Alcotest.(check (list int)) "bounded cells: the newest 4 in the one granule" [ 2; 3; 4; 5 ]
    (live_cells ~fill ~threads:[ 0; 1; 2; 3; 4; 5 ] 0 7)

let test_race_reports_cells () =
  let t = shadow () in
  let c0 = Vclock.tick (Vclock.create ~nprocs:2) 0 in
  let c1 = Vclock.tick (Vclock.create ~nprocs:2) 1 in
  ignore (record t ~thread:0 ~clock:c0 ~kind:Access_kind.Rma_write ~line:10 0 7);
  match record t ~thread:1 ~clock:c1 ~kind:Access_kind.Local_read ~line:20 0 7 with
  | None -> Alcotest.fail "expected race"
  | Some r ->
      Alcotest.(check int) "prior line" 10 r.Shadow.prior.Shadow.debug.Debug_info.line;
      Alcotest.(check int) "current line" 20 r.Shadow.current.Shadow.debug.Debug_info.line

let test_clear () =
  let c0 = Vclock.tick (Vclock.create ~nprocs:2) 0 in
  let fill t =
    ignore (record t ~thread:0 ~clock:c0 ~kind:Access_kind.Local_write ~line:1 0 7);
    Shadow.clear t
  in
  Alcotest.(check (list int)) "no cells" [] (live_cells ~fill ~threads:[ 0 ] 0 7)

let test_multi_granule_spans () =
  let t = shadow () in
  let c0 = Vclock.tick (Vclock.create ~nprocs:2) 0 in
  let c1 = Vclock.tick (Vclock.create ~nprocs:2) 1 in
  let fill t = ignore (record t ~thread:0 ~clock:c0 ~kind:Access_kind.Rma_write ~line:1 0 63) in
  fill t;
  Alcotest.(check (list int)) "one cell in each of eight granules" (List.init 8 (fun _ -> 0))
    (List.concat_map
       (fun g -> live_cells ~fill ~threads:[ 0 ] (8 * g) ((8 * g) + 7))
       (List.init 8 Fun.id));
  Alcotest.(check bool) "overlap found in the middle" true
    (record t ~thread:1 ~clock:c1 ~kind:Access_kind.Local_read ~line:2 40 41 <> None)

let suite =
  [
    Alcotest.test_case "concurrent write/write races" `Quick test_concurrent_write_write_races;
    Alcotest.test_case "ordered accesses safe" `Quick test_ordered_accesses_safe;
    Alcotest.test_case "read/read safe" `Quick test_read_read_safe;
    Alcotest.test_case "same thread safe" `Quick test_same_thread_safe;
    Alcotest.test_case "disjoint bytes in a granule safe" `Quick test_disjoint_bytes_safe;
    Alcotest.test_case "eviction bounded" `Quick test_eviction_bounded;
    Alcotest.test_case "race reports both cells" `Quick test_race_reports_cells;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "multi-granule spans" `Quick test_multi_granule_spans;
  ]
