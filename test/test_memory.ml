open Mpi_sim
open Rma_access

(* Direct tests for the per-rank address space and the cost model. *)

let test_alloc_and_rw () =
  let m = Memory.create ~size:64 in
  let a = Memory.alloc m ~label:"x" 16 in
  Memory.write m ~addr:a ~data:(Bytes.of_string "hello world!!..,");
  Alcotest.(check string) "readback" "hello" (Bytes.to_string (Memory.read m ~addr:a ~len:5));
  Memory.write_int64 m ~addr:(a + 8) 77L;
  Alcotest.(check int64) "int64 rw" 77L (Memory.read_int64 m ~addr:(a + 8))

let test_alloc_rejects_nonpositive () =
  let m = Memory.create ~size:64 in
  Alcotest.check_raises "zero" (Invalid_argument "Memory.alloc: size must be positive") (fun () ->
      ignore (Memory.alloc m 0))

let test_bounds_checked () =
  let m = Memory.create ~size:64 in
  let a = Memory.alloc m 8 in
  Alcotest.(check bool) "oob read raises" true
    (match Memory.read m ~addr:(a + 4) ~len:8 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "negative addr raises" true
    (match Memory.read m ~addr:(-1) ~len:4 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_growth_preserves_contents () =
  let m = Memory.create ~size:16 in
  let a = Memory.alloc m 8 in
  Memory.write_int64 m ~addr:a 123L;
  (* Force several doublings. *)
  let _big = Memory.alloc m 10_000 in
  Alcotest.(check int64) "old data intact" 123L (Memory.read_int64 m ~addr:a)

let test_allocation_metadata () =
  let m = Memory.create ~size:64 in
  let s = Memory.alloc m ~label:"stack" ~storage:Memory.Stack ~exposed:false 8 in
  let h = Memory.alloc m ~label:"heap" ~storage:Memory.Heap ~exposed:true 8 in
  (match Memory.allocation_at m s with
  | Some al ->
      Alcotest.(check string) "label" "stack" al.Memory.label;
      Alcotest.(check bool) "storage" true (al.Memory.storage = Memory.Stack)
  | None -> Alcotest.fail "allocation not found");
  Alcotest.(check bool) "exposure query" true
    (Memory.interval_exposed m (Interval.of_range ~addr:h ~len:8));
  Alcotest.(check bool) "non-exposed" false
    (Memory.interval_exposed m (Interval.of_range ~addr:s ~len:8));
  Alcotest.(check bool) "stack query" true
    (Memory.interval_on_stack m (Interval.of_range ~addr:s ~len:8));
  Alcotest.(check bool) "heap not stack" false
    (Memory.interval_on_stack m (Interval.of_range ~addr:h ~len:8));
  Alcotest.(check bool) "gap has no allocation" true (Memory.allocation_at m 10_000 = None)

let test_partial_overlap_queries () =
  let m = Memory.create ~size:64 in
  let e = Memory.alloc m ~exposed:true 8 in
  (* An interval straddling the allocation boundary still counts. *)
  Alcotest.(check bool) "straddling exposed" true
    (Memory.interval_exposed m (Interval.make ~lo:(e + 6) ~hi:(e + 20)))

let test_message_cost_model () =
  let c = Config.default in
  Alcotest.(check bool) "monotone in size" true
    (Config.message_cost c ~bytes_count:10 < Config.message_cost c ~bytes_count:1_000_000);
  Alcotest.(check (float 1e-12)) "alpha at zero bytes" c.Config.alpha_msg
    (Config.message_cost c ~bytes_count:0);
  Alcotest.(check bool) "collective grows with ranks" true
    (Config.collective_cost c ~nprocs:4 ~bytes_count:8
    < Config.collective_cost c ~nprocs:256 ~bytes_count:8);
  Alcotest.(check (float 1e-12)) "quiet network is free" 0.0
    (Config.message_cost Sim_config.quiet_network ~bytes_count:4096)

let suite =
  [
    Alcotest.test_case "alloc and read/write" `Quick test_alloc_and_rw;
    Alcotest.test_case "alloc rejects non-positive sizes" `Quick test_alloc_rejects_nonpositive;
    Alcotest.test_case "bounds checked" `Quick test_bounds_checked;
    Alcotest.test_case "growth preserves contents" `Quick test_growth_preserves_contents;
    Alcotest.test_case "allocation metadata" `Quick test_allocation_metadata;
    Alcotest.test_case "partial overlap queries" `Quick test_partial_overlap_queries;
    Alcotest.test_case "message cost model" `Quick test_message_cost_model;
  ]
