(* Resource governance ([Rma_store.Budget], [Rma_store.Governor]):
   spec parsing, budget enforcement on all three stores under each
   policy, and the 500-budget soak proving a budget either leaves the
   verdict identical or reports the degradation — never a silent
   verdict change (DESIGN.md §11). Damaged traces are tested in
   [test_trace.ml]. *)

open Rma_access
open Rma_store
open Rma_analysis
module Event = Mpi_sim.Event
module Json = Rma_util.Json
module Race_export = Rma_report.Race_export

let mk_access ?(issuer = 0) ?(kind = Access_kind.Rma_read) ~seq ~line lo hi =
  Access.make
    ~interval:(Interval.make ~lo ~hi)
    ~kind ~issuer ~seq
    ~debug:(Debug_info.make ~file:"fault.c" ~line ~operation:"op")

(* --- spec parsing ---------------------------------------------------- *)

let test_budget_spec () =
  (match Budget.of_spec "nodes=4096,policy=spill" with
  | Error e -> Alcotest.failf "spec rejected: %s" e
  | Ok b ->
      Alcotest.(check (option int)) "node cap parsed" (Some 4096) b.Budget.max_nodes;
      Alcotest.(check bool) "spill policy" true (b.Budget.policy = Budget.Spill_oldest_epoch);
      Alcotest.(check bool) "spec round-trips" true (Budget.of_spec (Budget.to_spec b) = Ok b));
  (match Budget.of_spec "4096:coarsen" with
  | Error e -> Alcotest.failf "shorthand rejected: %s" e
  | Ok b ->
      Alcotest.(check (option int)) "shorthand node cap" (Some 4096) b.Budget.max_nodes;
      Alcotest.(check bool) "shorthand policy" true (b.Budget.policy = Budget.Coarsen));
  (match Budget.of_spec "bytes=1048576,policy=fail" with
  | Error e -> Alcotest.failf "byte spec rejected: %s" e
  | Ok b ->
      Alcotest.(check (option int)) "byte cap parsed" (Some 1048576) b.Budget.max_bytes;
      Alcotest.(check bool) "fail alias" true (b.Budget.policy = Budget.Fail_fast));
  Alcotest.(check bool) "empty spec is unbounded" true (Budget.of_spec "" = Ok Budget.unbounded);
  List.iter
    (fun bad ->
      match Budget.of_spec bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "bad budget %S accepted" bad)
    [ "nodes=0"; "nodes=-5"; "policy=wat"; "0:spill"; "4096:wat"; "stuff=1" ]

(* --- budget governance on the stores --------------------------------- *)

let spill_budget cap =
  { Budget.max_nodes = Some cap; max_bytes = None; policy = Budget.Spill_oldest_epoch }

let test_disjoint_spill () =
  let cap = 8 in
  let store = Disjoint_store.create ~budget:(spill_budget cap) () in
  (* 32 pairwise-distant same-kind accesses (gaps prevent merging) over
     four epochs. *)
  for i = 1 to 32 do
    (match Disjoint_store.insert store (mk_access ~seq:i ~line:i (i * 10) ((i * 10) + 3)) with
    | Store_intf.Inserted -> ()
    | Store_intf.Race_detected _ -> Alcotest.fail "reads cannot race");
    if i mod 8 = 0 then Disjoint_store.note_epoch store
  done;
  let st = Disjoint_store.stats store in
  Alcotest.(check bool) "node count capped" true (st.Store_intf.nodes <= cap);
  Alcotest.(check int) "every insert accepted" 32 st.Store_intf.inserts;
  Alcotest.(check int) "evictions reported as degraded drops" (32 - st.Store_intf.nodes)
    st.Store_intf.degraded_drops;
  (* Oldest-first: the survivors are the newest accesses. *)
  let seqs = List.map (fun a -> a.Access.seq) (Disjoint_store.to_list store) in
  List.iter
    (fun seq -> Alcotest.(check bool) (Printf.sprintf "seq %d survived" seq) true (seq > 32 - cap))
    seqs

let test_disjoint_fail_fast () =
  let budget = { Budget.max_nodes = Some 4; max_bytes = None; policy = Budget.Fail_fast } in
  let store = Disjoint_store.create ~budget () in
  let insert i = ignore (Disjoint_store.insert store (mk_access ~seq:i ~line:i (i * 10) (i * 10))) in
  for i = 1 to 4 do insert i done;
  (match insert 5 with
  | () -> Alcotest.fail "insert past a fail-fast budget did not raise"
  | exception Budget.Exhausted _ -> ());
  (* Still over budget, so the next insert keeps failing: the analysis
     cannot silently continue past the first Exhausted. *)
  match insert 6 with
  | () -> Alcotest.fail "insert after Exhausted did not raise again"
  | exception Budget.Exhausted _ ->
      Alcotest.(check int) "no degraded drops under fail-fast" 0
        (Disjoint_store.stats store).Store_intf.degraded_drops

let test_disjoint_coarsen () =
  let budget = { Budget.max_nodes = Some 4; max_bytes = None; policy = Budget.Coarsen } in
  let store = Disjoint_store.create ~budget () in
  (* Adjacent same-kind same-issuer accesses with distinct source lines:
     regular merging refuses them (debug info differs), coarsening
     collapses them. *)
  for i = 0 to 11 do
    ignore (Disjoint_store.insert store (mk_access ~seq:(i + 1) ~line:(i + 1) i i))
  done;
  let st = Disjoint_store.stats store in
  Alcotest.(check bool) "coarsened under the cap" true (st.Store_intf.nodes <= 4);
  Alcotest.(check bool) "coarsening reported as degraded drops" true
    (st.Store_intf.degraded_drops > 0);
  (* Coverage is exact: the coarse node(s) span the same bytes. *)
  let covered =
    List.fold_left
      (fun acc a -> acc + Interval.length a.Access.interval)
      0 (Disjoint_store.to_list store)
  in
  Alcotest.(check int) "no byte lost or invented" 12 covered;
  (* The coarse node still races like the originals would. *)
  match
    Disjoint_store.insert store
      (mk_access ~kind:Access_kind.Local_write ~issuer:0 ~seq:99 ~line:99 5 5)
  with
  | Store_intf.Race_detected _ -> ()
  | Store_intf.Inserted -> Alcotest.fail "write over a coarsened read did not race"

let test_legacy_byte_budget () =
  (* Byte caps translate per store: 448 bytes / 112 per node = 4 nodes in
     the legacy store. *)
  let budget = { Budget.max_nodes = None; max_bytes = Some 448; policy = Budget.Fail_fast } in
  let store = Legacy_store.create ~budget () in
  let insert i = ignore (Legacy_store.insert store (mk_access ~seq:i ~line:i (i * 10) (i * 10))) in
  (for i = 1 to 4 do insert i done);
  (match insert 5 with
  | () -> Alcotest.fail "legacy store ignored its byte budget"
  | exception Budget.Exhausted _ -> ())

(* --- soak: 500 budgets, no silent verdict change ---------------- *)

(* A deterministic event stream (4 ranks x 2 windows keeps 500 runs
   fast) with epoch cycling. *)
let soak_events ~nprocs ~wins ~n =
  let seed = ref 246_813_579 in
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
    if i mod 53 = 0 then begin
      let win = rand wins and rank = rand nprocs in
      push (Event.Epoch_closed { win; rank; sim_time });
      push (Event.Epoch_opened { win; rank; sim_time })
    end
    else begin
      let kind = List.nth Access_kind.all (rand 5) in
      let space = rand nprocs in
      let issuer = if Access_kind.is_local kind then space else rand nprocs in
      let lo = rand 192 in
      let access =
        Access.make
          ~interval:(Interval.make ~lo ~hi:(lo + rand 8))
          ~kind ~issuer ~seq:i
          ~debug:(Debug_info.make ~file:"soak.c" ~line:(1 + rand 30) ~operation:"op")
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

let soak_budgets = 500

(* Every cap from 2 to 126 nodes under each of the two degrading
   policies, four times over: a verdict may legitimately change under a
   budget, but only with the degradation reported. *)
let test_soak_500_budgets_no_silent_change () =
  let nprocs = 4 in
  let events = soak_events ~nprocs ~wins:2 ~n:400 in
  let run ?budget () =
    let tool = Rma_analyzer.create ~nprocs ~mode:Tool.Collect ?budget Rma_analyzer.Contribution in
    List.iter (fun e -> ignore (tool.Tool.observer e)) events;
    let json = Json.to_string (Race_export.to_json ~generator:"fault-soak" (tool.Tool.races ())) in
    (json, (tool.Tool.bst_summary ()).Tool.degraded_drops_total)
  in
  let clean_json, clean_drops = run () in
  Alcotest.(check int) "clean run is not degraded" 0 clean_drops;
  let silent = ref [] and degraded = ref 0 in
  for i = 1 to soak_budgets do
    let cap = 2 + (i mod 125) in
    let policy = if i mod 2 = 0 then Budget.Spill_oldest_epoch else Budget.Coarsen in
    let budget = { Budget.max_nodes = Some cap; max_bytes = None; policy } in
    let json, drops = run ~budget () in
    if drops > 0 then incr degraded;
    if (not (String.equal json clean_json)) && drops = 0 then
      silent := (Budget.to_spec budget, "verdict changed with zero degraded_drops") :: !silent
  done;
  Alcotest.(check bool) "small caps degrade" true (!degraded > 0);
  match !silent with
  | [] -> ()
  | (spec, why) :: _ ->
      Alcotest.failf "%d of %d budgets violated the contract; first: %s (%s)"
        (List.length !silent) soak_budgets spec why

let suite =
  [
    Alcotest.test_case "budget specs parse and round-trip" `Quick test_budget_spec;
    Alcotest.test_case "disjoint store spills oldest epochs at the cap" `Quick test_disjoint_spill;
    Alcotest.test_case "fail-fast budget raises Exhausted" `Quick test_disjoint_fail_fast;
    Alcotest.test_case "coarsen merges past debug info, coverage-exact" `Quick
      test_disjoint_coarsen;
    Alcotest.test_case "legacy store obeys a byte cap" `Quick test_legacy_byte_budget;
    Alcotest.test_case "soak: 500 budgets, zero silent verdict changes" `Quick
      test_soak_500_budgets_no_silent_change;
  ]
