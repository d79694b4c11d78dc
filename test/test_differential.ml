(* Property-based differential harness for the disjoint store's insert
   fast path.

   Random access streams — interleaved inserts, mid-stream race checks,
   epoch notes, finger flushes and window clears — are replayed against
   two configurations of [Disjoint_store]:

   - the reference: [~fast_path:false], Algorithm 1 against the tree on
     every insert;
   - the finger cache (default creation, one pending run);

   asserting identical per-step race verdicts (same existing/incoming
   accesses), identical final interval sets, identical node counts and
   identical Algorithm 1 statistics, with the fast-path invariants
   ([Disjoint_store.self_check]) holding after every step. A second
   property checks [Legacy_store] agreement on the stream class where
   the paper predicts it (identical-interval, RMA-only accesses: no
   Figure 5a off-path misses, no order-sensitivity false positives, no
   accumulate atomicity). *)

open Rma_access
open Rma_store

let acc ~issuer ~seq ~line ~lo ~hi kind =
  Access.make
    ~interval:(Interval.make ~lo ~hi)
    ~kind ~issuer ~seq
    ~debug:(Debug_info.make ~file:"diff.c" ~line ~operation:"op")

(* --- step language --- *)

type step =
  | Insert of Access.t
  | Check of Access.t
  | Note_epoch
  | Flush_finger
  | Clear

let decode_steps raw =
  List.mapi
    (fun i (t, lo, len, k, x) ->
      let kind = List.nth Access_kind.all (k mod 5) in
      let issuer = if Access_kind.is_local kind then 0 else x mod 3 in
      let line = 1 + (t mod 4) in
      let a = acc ~issuer ~seq:(i + 1) ~line ~lo ~hi:(lo + len - 1) kind in
      match t mod 12 with
      | 9 -> Check a
      | 10 -> if x mod 2 = 0 then Note_epoch else Flush_finger
      | 11 when x mod 4 = 0 -> Clear
      | _ -> Insert a)
    raw

let step_gen =
  QCheck.Gen.(
    let* t = int_range 0 1000 in
    let* lo = int_range 0 96 in
    let* len = int_range 1 8 in
    let* k = int_range 0 1000 in
    let* x = int_range 0 1000 in
    return (t, lo, len, k, x))

let print_raw l =
  String.concat ";"
    (List.map (fun (t, lo, len, k, x) -> Printf.sprintf "(%d,%d,%d,%d,%d)" t lo len k x) l)

let arb_stream =
  QCheck.make ~print:print_raw
    ~shrink:QCheck.Shrink.(list)
    QCheck.Gen.(list_size (int_range 1 50) step_gen)

(* --- replay --- *)

type verdict = V_inserted | V_race of Access.t * Access.t | V_quiet

let verdict_of = function
  | Store_intf.Inserted -> V_inserted
  | Store_intf.Race_detected { existing; incoming } -> V_race (existing, incoming)

let verdict_equal a b =
  match (a, b) with
  | V_inserted, V_inserted | V_quiet, V_quiet -> true
  | V_race (e1, i1), V_race (e2, i2) -> Access.equal e1 e2 && Access.equal i1 i2
  | _ -> false

let verdict_str = function
  | V_inserted -> "inserted"
  | V_quiet -> "quiet"
  | V_race (e, i) -> Format.asprintf "race(%a vs %a)" Access.pp e Access.pp i

(* Replays [steps] on [store], checking [self_check] after every step,
   and returns the per-step verdicts. *)
let replay store steps =
  List.map
    (fun step ->
      let v =
        match step with
        | Insert a -> verdict_of (Disjoint_store.insert store a)
        | Check a -> verdict_of (Disjoint_store.check_only store a)
        | Note_epoch ->
            Disjoint_store.note_epoch store;
            V_quiet
        | Flush_finger ->
            Disjoint_store.flush_finger store;
            V_quiet
        | Clear ->
            Disjoint_store.clear store;
            V_quiet
      in
      if not (Disjoint_store.self_check store) then
        QCheck.Test.fail_reportf "fast-path invariants violated after a step";
      v)
    steps

let final_state store =
  Disjoint_store.flush_finger store;
  let stats = Disjoint_store.stats store in
  (Disjoint_store.to_list store, stats)

let check_against_reference ~name reference_verdicts ref_state store_verdicts store_state =
  List.iteri
    (fun i (vr, vs) ->
      if not (verdict_equal vr vs) then
        QCheck.Test.fail_reportf "%s: step %d verdict differs: reference %s, got %s" name i
          (verdict_str vr) (verdict_str vs))
    (List.combine reference_verdicts store_verdicts);
  let ref_list, ref_stats = ref_state and got_list, got_stats = store_state in
  if not (List.equal Access.equal ref_list got_list) then
    QCheck.Test.fail_reportf "%s: final interval sets differ (%d vs %d nodes)" name
      (List.length ref_list) (List.length got_list);
  let open Store_intf in
  let pairs =
    [
      ("nodes", ref_stats.nodes, got_stats.nodes);
      ("peak_nodes", ref_stats.peak_nodes, got_stats.peak_nodes);
      ("inserts", ref_stats.inserts, got_stats.inserts);
      ("fragments_created", ref_stats.fragments_created, got_stats.fragments_created);
      ("merges_performed", ref_stats.merges_performed, got_stats.merges_performed);
      ("race_checks", ref_stats.race_checks, got_stats.race_checks);
    ]
  in
  List.iter
    (fun (what, a, b) ->
      if a <> b then QCheck.Test.fail_reportf "%s: %s differ: reference %d, got %d" name what a b)
    pairs

let finger_equals_slow_path ~name steps =
  let reference = Disjoint_store.create ~fast_path:false () in
  let ref_verdicts = replay reference steps in
  let ref_state = final_state reference in
  let finger = Disjoint_store.create () in
  let finger_verdicts = replay finger steps in
  check_against_reference ~name ref_verdicts ref_state finger_verdicts (final_state finger);
  true

let prop_finger_equals_slow_path =
  QCheck.Test.make ~name:"differential: finger = slow path" ~count:700 arb_stream (fun raw ->
      finger_equals_slow_path ~name:"finger" (decode_steps raw))

(* --- run-biased streams --- *)

(* Uniform streams rarely build long adjacent runs, so they seldom reach
   the slow path's hand-over of a merged node to the finger. These
   streams walk a cursor: most steps extend the current same-line run by
   a 1–4 byte piece, and the rest cut it with a foreign-kind or
   foreign-line access near the cursor, start a new run (often right next
   to the old one, so it abuts a non-mergeable node), resume the previous
   run while the finger holds another, or insert a race check, epoch
   note, flush or clear. *)
type run = { kind : int; line : int; issuer : int; up : bool; mutable cur : int }

let decode_run_steps raw =
  let make_run ~k ~x ~cur =
    { kind = k mod 5; line = 1 + (k mod 3); issuer = x mod 3; up = x mod 2 = 0; cur }
  in
  let r = ref (make_run ~k:1 ~x:0 ~cur:100) and prev = ref (make_run ~k:2 ~x:1 ~cur:300) in
  let access ~seq ~kind ~line ~issuer ~lo ~len =
    let kind = List.nth Access_kind.all kind in
    let issuer = if Access_kind.is_local kind then 0 else issuer in
    acc ~issuer ~seq ~line ~lo ~hi:(lo + len - 1) kind
  in
  let extend ~seq ~len =
    let run = !r in
    let lo = if run.up then run.cur else run.cur - len + 1 in
    run.cur <- (if run.up then lo + len else lo - 1);
    if run.cur < 0 || run.cur > 400 then run.cur <- 200;
    Insert (access ~seq ~kind:run.kind ~line:run.line ~issuer:run.issuer ~lo ~len)
  in
  List.mapi
    (fun i (t, len, k, x) ->
      let run = !r and seq = i + 1 in
      (* Overlapping the run's last bytes, or abutting its growing end. *)
      let near = if run.up then run.cur - (x mod 7) else run.cur + (x mod 7) - len + 1 in
      match t mod 16 with
      | 9 | 10 ->
          let kind = (run.kind + 1 + (k mod 4)) mod 5 in
          Insert (access ~seq ~kind ~line:run.line ~issuer:x ~lo:near ~len)
      | 11 -> Insert (access ~seq ~kind:run.kind ~line:4 ~issuer:run.issuer ~lo:near ~len)
      | 12 ->
          r := !prev;
          prev := run;
          extend ~seq ~len
      | 13 ->
          let cur = if x mod 3 = 0 then 20 + (x mod 300) else run.cur in
          r := make_run ~k ~x ~cur;
          prev := run;
          extend ~seq ~len
      | 14 -> (
          match x mod 3 with
          | 0 -> Check (access ~seq ~kind:(k mod 5) ~line:5 ~issuer:x ~lo:near ~len)
          | 1 -> Note_epoch
          | _ -> Flush_finger)
      | 15 when x mod 4 = 0 -> Clear
      | _ -> extend ~seq ~len)
    raw

let arb_run_stream =
  let step =
    QCheck.Gen.(
      let* t = int_range 0 1000 in
      let* len = int_range 1 4 in
      let* k = int_range 0 1000 in
      let* x = int_range 0 1000 in
      return (t, len, k, x))
  in
  QCheck.make
    ~print:(fun l ->
      String.concat ";"
        (List.map (fun (t, len, k, x) -> Printf.sprintf "(%d,%d,%d,%d)" t len k x) l))
    ~shrink:QCheck.Shrink.(list)
    QCheck.Gen.(list_size (int_range 1 80) step)

let prop_finger_equals_slow_path_on_runs =
  QCheck.Test.make ~name:"differential: finger = slow path on interrupted runs" ~count:500
    arb_run_stream (fun raw ->
      finger_equals_slow_path ~name:"finger on runs" (decode_run_steps raw))

(* --- legacy agreement --- *)

(* Identical-interval RMA-only streams: the legacy search path always
   contains the most recent node, every access pair is order-insensitive
   and the Table 1 dominance rule loses nothing detection-relevant, so
   the paper predicts verdict-for-verdict agreement (node counts still
   differ — that is Figure 8). *)
let legacy_raw_gen =
  QCheck.Gen.(
    let* w = int_range 0 1 in
    let* x = int_range 0 1000 in
    return (w, x))

let arb_legacy_stream =
  QCheck.make
    ~print:(fun l ->
      String.concat ";" (List.map (fun (w, x) -> Printf.sprintf "(%d,%d)" w x) l))
    ~shrink:QCheck.Shrink.(list)
    QCheck.Gen.(list_size (int_range 1 40) legacy_raw_gen)

let prop_legacy_agreement =
  QCheck.Test.make ~name:"differential: legacy agreement on RMA-only same-interval streams"
    ~count:400 arb_legacy_stream (fun raw ->
      let accesses =
        List.mapi
          (fun i (w, x) ->
            let kind = if w = 0 then Access_kind.Rma_read else Access_kind.Rma_write in
            acc ~issuer:(x mod 3) ~seq:(i + 1) ~line:1 ~lo:16 ~hi:23 kind)
          raw
      in
      let legacy = Legacy_store.create () in
      let slow = Disjoint_store.create ~fast_path:false () in
      let finger = Disjoint_store.create () in
      List.iter
        (fun a ->
          let flagged outcome =
            match outcome with Store_intf.Inserted -> false | Store_intf.Race_detected _ -> true
          in
          let vl = flagged (Legacy_store.insert legacy a) in
          let vs = flagged (Disjoint_store.insert slow a) in
          let vf = flagged (Disjoint_store.insert finger a) in
          if vl <> vs || vl <> vf then
            QCheck.Test.fail_reportf "verdicts diverge on %s: legacy %b slow path %b finger %b"
              (Format.asprintf "%a" Access.pp a)
              vl vs vf)
        accesses;
      true)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_finger_equals_slow_path;
    QCheck_alcotest.to_alcotest prop_finger_equals_slow_path_on_runs;
    QCheck_alcotest.to_alcotest prop_legacy_agreement;
  ]

(* ------------------------------------------------------------------ *)
(* Interleaving determinism (PR 8): the hybrid kernels under a swept    *)
(* interleave seed.                                                     *)
(* ------------------------------------------------------------------ *)

module Scenario = Rma_microbench.Scenario
module Runner = Rma_microbench.Runner

let hybrid_flagged ~interleave_seed (k : Scenario.Kernel.t) =
  let tool =
    Rma_analysis.Rma_analyzer.create ~nprocs:k.Scenario.Kernel.k_nprocs
      ~mode:Rma_analysis.Tool.Collect Rma_analysis.Rma_analyzer.Contribution
  in
  (Runner.run_kernel ~interleave_seed ~tool k).Runner.k_flagged

(* Ground-truth labels survive a 50-seed interleaving sweep: no hybrid
   kernel's verdict depends on the schedule. *)
let test_interleave_label_stable_across_seeds () =
  List.iter
    (fun (k : Scenario.Kernel.t) ->
      for interleave_seed = 1 to 50 do
        let flagged = hybrid_flagged ~interleave_seed k in
        Alcotest.(check bool)
          (Printf.sprintf "%s interleave=%d" k.Scenario.Kernel.k_name interleave_seed)
          k.Scenario.Kernel.k_racy flagged
      done)
    Scenario.Kernel.hybrid

(* A decoupled interleave seed must not change data-level behaviour for
   thread-free programs: the whole pre-hybrid corpus keeps its verdict
   under an aggressive schedule shuffle. *)
let test_interleave_preserves_single_thread_verdicts () =
  List.iter
    (fun (k : Scenario.Kernel.t) ->
      let reference = hybrid_flagged ~interleave_seed:13 k in
      Alcotest.(check bool) k.Scenario.Kernel.k_name k.Scenario.Kernel.k_racy reference)
    Scenario.Kernel.all

let suite =
  suite
  @ [
      Alcotest.test_case "interleave: hybrid labels stable over 50 seeds" `Slow
        test_interleave_label_stable_across_seeds;
      Alcotest.test_case "interleave: single-thread kernels keep verdicts" `Slow
        test_interleave_preserves_single_thread_verdicts;
    ]

(* ------------------------------------------------------------------ *)
(* Windowless local accesses: every open epoch of the rank            *)
(* ------------------------------------------------------------------ *)

(* A local access that names no window lands in every tree of its rank
   whose epoch is open (§5.1), in the tree table's iteration order. The
   seeded streams below mix such accesses with RMA traffic, windowed
   local accesses, epoch cycling over 2 windows, trees first created
   mid-stream (by an epoch open or by an RMA access into a closed
   window) and a [reset] halfway; 20 ranks make 40 trees, past the
   table's first resize. Their verdict digests are pinned, so the set
   and the order of the trees one access enters — hence race ids, the
   exports and the digest — cannot move. *)

type route_step = Ev of Mpi_sim.Event.event | Reset

let route_wins = 2

let route_stream ~seed ~nprocs ~steps =
  let rng = Rma_util.Prng.create ~seed in
  let pick n = Rma_util.Prng.int rng ~bound:n in
  let opened = Array.make_matrix nprocs route_wins false in
  let out = ref [] in
  let ev e = out := Ev e :: !out in
  for w = 0 to route_wins - 1 do
    ev (Mpi_sim.Event.Win_created { win = w; rank = 0; base = 0; size = 4096; sim_time = 0.0 })
  done;
  (* Window 1's trees are first created mid-stream. *)
  for r = 0 to nprocs - 1 do
    ev (Mpi_sim.Event.Epoch_opened { win = 0; rank = r; sim_time = 0.0 });
    opened.(r).(0) <- true
  done;
  for i = 1 to steps do
    let sim_time = float_of_int i in
    if i = steps / 2 then begin
      out := Reset :: !out;
      Array.iter (fun row -> Array.fill row 0 route_wins false) opened
    end;
    let rank = pick nprocs and win = pick route_wins in
    let lo = pick 32 in
    let hi = lo + pick 8 in
    let line = 1 + pick 4 in
    let access ~issuer kind = acc ~issuer ~seq:i ~line ~lo ~hi kind in
    let local () = if pick 2 = 0 then Access_kind.Local_write else Access_kind.Local_read in
    match pick 10 with
    | 0 | 1 | 2 | 3 ->
        ev
          (Mpi_sim.Event.Access
             { space = rank; access = access ~issuer:rank (local ()); win = None;
               relevant = true; on_stack = false; sim_time })
    | 4 | 5 | 6 ->
        let kind = List.nth Access_kind.[ Rma_read; Rma_write; Rma_accumulate ] (pick 3) in
        ev
          (Mpi_sim.Event.Access
             { space = rank; access = access ~issuer:(pick nprocs) kind; win = Some win;
               relevant = true; on_stack = false; sim_time })
    | 7 ->
        ev
          (Mpi_sim.Event.Access
             { space = rank; access = access ~issuer:rank (local ()); win = Some win;
               relevant = true; on_stack = false; sim_time })
    | _ ->
        if opened.(rank).(win) then ev (Mpi_sim.Event.Epoch_closed { win; rank; sim_time })
        else ev (Mpi_sim.Event.Epoch_opened { win; rank; sim_time });
        opened.(rank).(win) <- not opened.(rank).(win)
  done;
  List.rev !out

(* The race count and verdict digest at the reset and at the end, plus
   a digest of the JSON export (race ids and provenance), as one hex
   digest. *)
let route_digest ~predictive ~nprocs steps =
  let tool =
    Rma_analysis.Rma_analyzer.create ~nprocs ~mode:Rma_analysis.Tool.Collect ~predictive
      Rma_analysis.Rma_analyzer.Contribution
  in
  let phases = ref [] in
  let settle () =
    let races = tool.Rma_analysis.Tool.races () in
    phases :=
      Printf.sprintf "%d %s %s"
        (tool.Rma_analysis.Tool.race_count ())
        (Rma_report.Race_export.verdict_digest races)
        (Digest.to_hex
           (Digest.string
              (Rma_util.Json.to_string (Rma_report.Race_export.to_json ~generator:"routes" races))))
      :: !phases
  in
  List.iter
    (function
      | Ev e -> ignore (tool.Rma_analysis.Tool.observer e)
      | Reset ->
          settle ();
          tool.Rma_analysis.Tool.reset ())
    steps;
  settle ();
  Digest.to_hex (Digest.string (String.concat "\n" (List.rev !phases)))

(* (seed, ranks, observed digest, predictive digest), pinned from the
   analyzer that folded the whole tree table for every such access. *)
let route_pins =
  [
    (1, 3, "fc99fe28a131ff26f422a3b71677fb03", "fc99fe28a131ff26f422a3b71677fb03");
    (2, 3, "8be879c1648f92135f6e784d1f36499e", "8be879c1648f92135f6e784d1f36499e");
    (3, 3, "18f288c41176ebd535bffafddaf71a97", "0c48a64d842e53cb37a1d1c178920bc1");
    (4, 20, "d1a3dd9157eb73ef64aac7fbc96d0341", "d1a3dd9157eb73ef64aac7fbc96d0341");
  ]

let test_windowless_digests_pinned () =
  List.iter
    (fun (seed, nprocs, observed, predicted) ->
      let steps = route_stream ~seed ~nprocs ~steps:400 in
      List.iter
        (fun (predictive, pinned) ->
          Alcotest.(check string)
            (Printf.sprintf "seed %d ranks %d predictive %b" seed nprocs predictive)
            pinned
            (route_digest ~predictive ~nprocs steps))
        [ (false, observed); (true, predicted) ])
    route_pins

(* Rank [rank] has both windows open and rank [rank + 1] puts into
   each; the rank stores to other bytes without naming a window (its
   route list is now in use), then, after RMA traffic from the rank has
   created every other rank's two trees when [filler] is set, to the
   put bytes: one race per open window. The races, in order. *)
let windowless_races ~nprocs ~rank ~filler =
  let access ~space ~issuer ~win ~seq ~lo kind =
    Mpi_sim.Event.Access
      { space; access = acc ~issuer ~seq ~line:(10 * seq) ~lo ~hi:(lo + 7) kind; win;
        relevant = true; on_stack = false; sim_time = float_of_int seq }
  in
  let put ~space ~issuer ~win ~seq ~lo =
    access ~space ~issuer ~win:(Some win) ~seq ~lo Access_kind.Rma_write
  in
  let store ~seq ~lo = access ~space:rank ~issuer:rank ~win:None ~seq ~lo Access_kind.Local_write in
  let origin = (rank + 1) mod nprocs in
  let others = List.filter (fun q -> q <> rank) (List.init nprocs Fun.id) in
  let events =
    [ Mpi_sim.Event.Epoch_opened { win = 0; rank; sim_time = 0.0 };
      Mpi_sim.Event.Epoch_opened { win = 1; rank; sim_time = 0.0 };
      put ~space:rank ~issuer:origin ~win:0 ~seq:1 ~lo:0;
      put ~space:rank ~issuer:origin ~win:1 ~seq:2 ~lo:0;
      store ~seq:3 ~lo:100 ]
    @ (if filler then
         List.concat_map
           (fun q -> [ put ~space:q ~issuer:rank ~win:0 ~seq:4 ~lo:200;
                       put ~space:q ~issuer:rank ~win:1 ~seq:4 ~lo:200 ])
           others
       else [])
    @ [ store ~seq:5 ~lo:0 ]
  in
  let tool =
    Rma_analysis.Rma_analyzer.create ~nprocs ~mode:Rma_analysis.Tool.Collect
      Rma_analysis.Rma_analyzer.Contribution
  in
  List.iter (fun e -> ignore (tool.Rma_analysis.Tool.observer e)) events;
  tool.Rma_analysis.Tool.races ()

let windows races = List.map (fun r -> r.Rma_analysis.Report.win) races

let test_windowless_races_in_both_windows () =
  let races = windowless_races ~nprocs:2 ~rank:0 ~filler:false in
  Alcotest.(check (list (option int))) "one race per open window" [ Some 1; Some 0 ]
    (windows races);
  Alcotest.(check string) "digest pinned" "373c40106cc514d6546945be099d55be"
    (Rma_report.Race_export.verdict_digest races)

(* Rank 2 of 48: growing the table from 4 to 96 trees resizes it, which
   swaps the iteration order of the rank's two trees, so the race order
   follows the table as it is at the access, not as it was when the
   rank's list was first built. *)
let test_windowless_order_follows_resize () =
  Alcotest.(check (list (option int))) "before the resize" [ Some 1; Some 0 ]
    (windows (windowless_races ~nprocs:48 ~rank:2 ~filler:false));
  Alcotest.(check (list (option int))) "after the resize" [ Some 0; Some 1 ]
    (windows (windowless_races ~nprocs:48 ~rank:2 ~filler:true))

let suite =
  suite
  @ [
      Alcotest.test_case "windowless accesses: seeded verdict digests pinned" `Quick
        test_windowless_digests_pinned;
      Alcotest.test_case "windowless access races in both open windows" `Quick
        test_windowless_races_in_both_windows;
      Alcotest.test_case "windowless race order follows a table resize" `Quick
        test_windowless_order_follows_resize;
    ]
