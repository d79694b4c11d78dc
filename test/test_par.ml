(* The sharded parallel engine ([Rma_par]) and its analyzer
   integration: the engine contract (clamping, shard stability, FIFO
   order, barrier drain, exception stashing, critical-path accounting),
   a soak test under maximum back-pressure (queue_capacity = 1),
   byte-identity sweeps of the full 154-code suite and the
   kernel corpus at jobs = 4, and golden-file stability of the
   provenance pipeline under sharded execution. *)

open Rma_access
open Rma_analysis
open Rma_microbench
module Event = Mpi_sim.Event
module Json = Rma_util.Json
module Race_export = Rma_report.Race_export

(* --- engine contract ------------------------------------------------ *)

let test_jobs_clamped () =
  let jobs j = Rma_par.jobs (Rma_par.create ~jobs:j ()) in
  Alcotest.(check int) "0 clamps to 1" 1 (jobs 0);
  Alcotest.(check int) "999 clamps to max_jobs" Rma_par.max_jobs (jobs 999);
  Alcotest.(check int) "in-range value kept" 3 (jobs 3);
  Alcotest.(check int) "the default is sequential" 1 (Rma_par.jobs (Rma_par.create ()))

let test_shard_of_stable () =
  let e = Rma_par.create ~jobs:4 () in
  let e' = Rma_par.create ~jobs:4 () in
  let hit = Array.make 4 false in
  for space = 0 to 32 do
    for win = 0 to 7 do
      let s = Rma_par.shard_of e ~space ~win in
      Alcotest.(check bool) "shard in range" true (s >= 0 && s < 4);
      Alcotest.(check int) "same key, same shard on a fresh engine" s
        (Rma_par.shard_of e' ~space ~win);
      hit.(s) <- true
    done
  done;
  Alcotest.(check bool) "the key mix reaches every shard" true (Array.for_all Fun.id hit)

let test_fifo_order_and_barrier () =
  let e = Rma_par.create ~jobs:4 ~queue_capacity:2 () in
  let logs = Array.init 4 (fun _ -> ref []) in
  for i = 0 to 199 do
    let shard = i mod 4 in
    Rma_par.submit e ~shard (fun () -> logs.(shard) := i :: !(logs.(shard)))
  done;
  Rma_par.barrier e;
  Alcotest.(check int) "nothing pending after the barrier" 0 (Rma_par.pending e);
  Array.iteri
    (fun shard log ->
      let got = List.rev !log in
      let expected = List.init 50 (fun k -> (k * 4) + shard) in
      Alcotest.(check (list int))
        (Printf.sprintf "shard %d ran its tasks in submission order" shard)
        expected got)
    logs

exception Boom

let test_exception_stashed_until_barrier () =
  let e = Rma_par.create ~jobs:2 () in
  let other_ran = ref false in
  Rma_par.submit e ~shard:0 (fun () -> raise Boom);
  Rma_par.submit e ~shard:1 (fun () -> other_ran := true);
  (match Rma_par.barrier e with
  | () -> Alcotest.fail "barrier swallowed the task exception"
  | exception Boom -> ());
  Alcotest.(check bool) "the other shard's task still ran" true !other_ran;
  (* The failure is consumed: the engine keeps working afterwards. *)
  let ran = ref false in
  Rma_par.submit e ~shard:0 (fun () -> ran := true);
  Rma_par.barrier e;
  Alcotest.(check bool) "engine usable after a failed barrier" true !ran

let test_take_work_seconds_resets () =
  let e = Rma_par.create ~jobs:2 () in
  Rma_par.submit e ~shard:1 (fun () ->
      (* Burn a measurable ~1ms so the microsecond timer cannot read 0. *)
      let t0 = Rma_util.Timer.now () in
      while Rma_util.Timer.now () -. t0 < 0.001 do
        ignore (Sys.opaque_identity 0)
      done);
  Rma_par.barrier e;
  let w = Rma_par.take_work_seconds e in
  Alcotest.(check bool) "busiest shard's work measured" true (w >= 0.001);
  Alcotest.(check (float 0.0)) "take resets the accumulators" 0.0 (Rma_par.take_work_seconds e)

(* --- soak: maximum back-pressure vs the sequential twin ------------- *)

(* A deterministic pseudo-random event stream over 8 ranks × 4 windows
   with epoch cycling, replayed in lockstep on the sequential analyzer
   and on a 4-shard engine throttled to one in-flight task per shard.
   Comparing [bst_summary] at every epoch close proves each barrier
   really drains the shard queues and flushes each store's finger; the
   test terminating at all
   proves the back-pressure protocol cannot deadlock against the
   barrier. *)
let soak_events ~nprocs ~wins ~n =
  let seed = ref 987_654_321 in
  let rand m =
    seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
    !seed mod m
  in
  let events = ref [] in
  let push e = events := e :: !events in
  for w = 0 to wins - 1 do
    push (Event.Win_created { win = w; rank = 0; base = 0; size = 4096; sim_time = 0.0 });
    for r = 0 to nprocs - 1 do
      push (Event.Epoch_opened { win = w; rank = r; sim_time = 0.0 })
    done
  done;
  for i = 1 to n do
    let sim_time = float_of_int i in
    if i mod 97 = 0 then begin
      let win = rand wins and rank = rand nprocs in
      push (Event.Epoch_closed { win; rank; sim_time });
      push (Event.Epoch_opened { win; rank; sim_time })
    end
    else begin
      let kind = List.nth Access_kind.all (rand 5) in
      let space = rand nprocs in
      let issuer = if Access_kind.is_local kind then space else rand nprocs in
      let lo = rand 256 in
      let access =
        Access.make
          ~interval:(Interval.make ~lo ~hi:(lo + rand 8))
          ~kind ~issuer ~seq:i
          ~debug:(Debug_info.make ~file:"soak.c" ~line:(1 + rand 40) ~operation:"op")
      in
      push
        (Event.Access
           { space; access; win = Some (rand wins); relevant = true; on_stack = false; sim_time })
    end
  done;
  for w = 0 to wins - 1 do
    for r = 0 to nprocs - 1 do
      push (Event.Epoch_closed { win = w; rank = r; sim_time = float_of_int (n + 1) })
    done
  done;
  List.rev !events

let test_soak_backpressure_matches_sequential () =
  let nprocs = 8 in
  let events = soak_events ~nprocs ~wins:4 ~n:4000 in
  let mk ~jobs ~queue_capacity =
    Rma_analyzer.create ~nprocs ~mode:Tool.Collect ~jobs ~queue_capacity Rma_analyzer.Contribution
  in
  let seq = mk ~jobs:1 ~queue_capacity:1024 in
  let par = mk ~jobs:4 ~queue_capacity:1 in
  List.iter
    (fun e ->
      ignore (seq.Tool.observer e);
      ignore (par.Tool.observer e);
      match e with
      | Event.Epoch_closed _ ->
          (* Sampled mid-stream: equality here means the barrier drained
             the shard queues before the close finished. *)
          if par.Tool.bst_summary () <> seq.Tool.bst_summary () then
            Alcotest.failf "bst_summary diverged mid-stream at %s"
              (Format.asprintf "%a" Event.pp_event e)
      | _ -> ())
    events;
  Alcotest.(check int) "race counts agree" (seq.Tool.race_count ()) (par.Tool.race_count ());
  let json t =
    Json.to_string (Race_export.to_json ~generator:"soak" (t.Tool.races ()))
  in
  Alcotest.(check string) "reports byte-identical" (json seq) (json par)

(* --- byte-identity sweeps over the full corpora --------------------- *)

let reports_json reports =
  Json.to_string (Race_export.to_json ~generator:"sweep" reports)

let test_suite_sweep_jobs4 () =
  Rma_store.Flight_recorder.enable ();
  Fun.protect ~finally:Rma_store.Flight_recorder.disable @@ fun () ->
  let tool1 = Rma_analyzer.create ~nprocs:3 ~mode:Tool.Collect ~jobs:1 Rma_analyzer.Contribution in
  let tool4 = Rma_analyzer.create ~nprocs:3 ~mode:Tool.Collect ~jobs:4 Rma_analyzer.Contribution in
  List.iter
    (fun sc ->
      let v1 = Runner.run ~tool:tool1 sc in
      let v4 = Runner.run ~tool:tool4 sc in
      if Bool.not (Bool.equal v1.Runner.flagged v4.Runner.flagged) then
        Alcotest.failf "%s: verdicts diverge (jobs=1 %b, jobs=4 %b)" sc.Scenario.name
          v1.Runner.flagged v4.Runner.flagged;
      let j1 = reports_json v1.Runner.reports and j4 = reports_json v4.Runner.reports in
      if not (String.equal j1 j4) then
        Alcotest.failf "%s: reports not byte-identical at jobs=4" sc.Scenario.name)
    Scenario.all;
  Alcotest.(check int) "whole suite swept" 154 (List.length Scenario.all)

let test_kernel_sweep_jobs4 () =
  Rma_store.Flight_recorder.enable ();
  Fun.protect ~finally:Rma_store.Flight_recorder.disable @@ fun () ->
  List.iter
    (fun k ->
      let mk jobs =
        Rma_analyzer.create ~nprocs:k.Scenario.Kernel.k_nprocs ~mode:Tool.Collect ~jobs
          Rma_analyzer.Contribution
      in
      let v1 = Runner.run_kernel ~tool:(mk 1) k in
      let v4 = Runner.run_kernel ~tool:(mk 4) k in
      if Bool.not (Bool.equal v1.Runner.k_flagged v4.Runner.k_flagged) then
        Alcotest.failf "%s: kernel verdicts diverge" k.Scenario.Kernel.k_name;
      let j1 = reports_json v1.Runner.k_reports and j4 = reports_json v4.Runner.k_reports in
      if not (String.equal j1 j4) then
        Alcotest.failf "%s: kernel reports not byte-identical at jobs=4" k.Scenario.Kernel.k_name)
    Scenario.Kernel.all

(* --- golden stability under sharded execution ----------------------- *)

(* The Code 1 provenance scenario of test_export.ml, parameterised over
   the shard count (and, for the run-configuration sweep, predictive
   mode and a fault schedule). *)
let code1_reports ?predictive ?faults ~jobs () =
  let tool =
    Rma_analyzer.create ~nprocs:2 ~mode:Tool.Collect ~jobs ?predictive ?faults
      Rma_analyzer.Contribution
  in
  let feed e = ignore (tool.Tool.observer e) in
  let access ~seq ~line ~op lo hi kind =
    Event.Access
      {
        Event.space = 0;
        access =
          Access.make
            ~interval:(Interval.make ~lo ~hi)
            ~kind ~issuer:0 ~seq
            ~debug:(Debug_info.make ~file:"code1.c" ~line ~operation:op);
        win = Some 0;
        relevant = true;
        on_stack = false;
        sim_time = float_of_int seq;
      }
  in
  feed (Event.Epoch_opened { win = 0; rank = 0; sim_time = 0.0 });
  feed (access ~seq:1 ~line:1 ~op:"Load" 4 4 Access_kind.Local_read);
  feed (access ~seq:2 ~line:2 ~op:"MPI_Put" 2 12 Access_kind.Rma_read);
  feed (access ~seq:3 ~line:3 ~op:"Store" 7 7 Access_kind.Local_write);
  feed (Event.Epoch_closed { win = 0; rank = 0; sim_time = 4.0 });
  tool.Tool.races ()

let with_recorder f =
  Rma_store.Flight_recorder.enable ();
  Fun.protect ~finally:Rma_store.Flight_recorder.disable f

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_explain_matches_golden () =
  let explain_of reports = Race_export.explain (List.hd reports) ^ "\n" in
  let seq = with_recorder (code1_reports ~jobs:1) in
  Alcotest.(check int) "one race" 1 (List.length seq);
  (* GOLDEN_OUT_EXPLAIN=/abs/path (or GOLDEN_OUT_DIR, see
     test/golden_regen.ml) regenerates the golden file instead of
     comparing (after an intentional format change). *)
  match Golden_regen.hook ~name:"explain.txt" with
  | Some path -> Golden_regen.write ~path (explain_of seq)
  | None ->
      let golden = read_file "golden/explain.txt" in
      Alcotest.(check string) "explain matches the golden file" golden (explain_of seq);
      let par = with_recorder (code1_reports ~jobs:4) in
      Alcotest.(check string) "explain stable at jobs=4" golden (explain_of par)

let test_sarif_golden_stable_at_jobs4 () =
  let reports = with_recorder (code1_reports ~jobs:4) in
  let sarif = Json.to_string (Race_export.to_sarif ~generator:"test" reports) ^ "\n" in
  let golden = read_file "golden/race.sarif" in
  Alcotest.(check string) "SARIF golden reproduced by the sharded engine" golden sarif

let suite =
  [
    Alcotest.test_case "jobs defaults and clamping" `Quick test_jobs_clamped;
    Alcotest.test_case "shard_of is stable and covers every shard" `Quick test_shard_of_stable;
    Alcotest.test_case "per-shard FIFO order; barrier drains" `Quick test_fifo_order_and_barrier;
    Alcotest.test_case "task exceptions surface at the barrier" `Quick
      test_exception_stashed_until_barrier;
    Alcotest.test_case "take_work_seconds measures and resets" `Quick
      test_take_work_seconds_resets;
    Alcotest.test_case "soak: one-slot queues vs sequential" `Quick
      test_soak_backpressure_matches_sequential;
    Alcotest.test_case "154-code suite byte-identical at jobs=4" `Quick test_suite_sweep_jobs4;
    Alcotest.test_case "kernel corpus byte-identical at jobs=4" `Quick test_kernel_sweep_jobs4;
    Alcotest.test_case "explain output matches the golden file, jobs 1 and 4" `Quick
      test_explain_matches_golden;
    Alcotest.test_case "SARIF golden stable at jobs=4" `Quick test_sarif_golden_stable_at_jobs4;
  ]
