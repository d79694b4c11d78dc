(* Algorithm 1's replace step (line 8) as one in-place splice.

   - Unit cases and a property for [Avl.splice] itself: fewer, as many
     and more pieces than nodes, kept nodes, pieces reaching past the
     window.
   - An independent list model of Algorithm 1 — a sorted list with a
     linear stab, the shared [Fragmenter], and filter/merge in place of
     remove/insert — that [Disjoint_store] must match after every step,
     with and without the finger. [~fast_path:false] splices too, so the
     differential harness alone could not catch a splice fault.
   - A MiniVite Figure 9 trace replayed through disjoint stores with
     [Disjoint_store.self_check] after every insert. *)

open Rma_access
open Rma_store

let read ~seq lo hi =
  Access.make
    ~interval:(Interval.make ~lo ~hi)
    ~kind:Access_kind.Rma_read ~issuer:0 ~seq
    ~debug:(Debug_info.make ~file:"splice.c" ~line:1 ~operation:"op")

let ivs l = List.map (fun a -> (Interval.lo a.Access.interval, Interval.hi a.Access.interval)) l

let by_lo a b = Interval.compare_lo a.Access.interval b.Access.interval

(* --- the primitive --- *)

(* Eleven disjoint nodes [10k, 10k+5]; the run under test is
   [40,45] [50,55] [60,65], the window [44,61]. *)
let fixture () =
  let t = Avl.create () in
  let nodes = List.init 11 (fun k -> read ~seq:(k + 1) (10 * k) ((10 * k) + 5)) in
  List.iter (Avl.insert t) nodes;
  let window = Interval.make ~lo:44 ~hi:61 in
  let old = Avl.stab t window in
  Alcotest.(check (list (pair int int))) "the run" [ (40, 45); (50, 55); (60, 65) ] (ivs old);
  (t, window, old, List.filter (fun a -> not (List.memq a old)) nodes)

let check_spliced name t ~outside pieces =
  Alcotest.(check bool) (name ^ ": invariants") true (Avl.invariants_ok t);
  Alcotest.(check (list (pair int int)))
    (name ^ ": contents")
    (ivs (List.sort by_lo (outside @ pieces)))
    (ivs (Avl.to_list t));
  Alcotest.(check int) (name ^ ": size") (List.length outside + List.length pieces) (Avl.size t)

let test_splice_shapes () =
  let fresh = ref 100 in
  let piece lo hi =
    incr fresh;
    read ~seq:!fresh lo hi
  in
  List.iter
    (fun (name, pieces) ->
      let t, window, old, outside = fixture () in
      Avl.splice t window ~old pieces;
      check_spliced name t ~outside pieces)
    [
      ("fewer pieces", [ piece 40 65 ]);
      ("no pieces", []);
      ("as many pieces", [ piece 40 47; piece 48 52; piece 53 65 ]);
      ("more pieces", [ piece 40 41; piece 42 43; piece 44 49; piece 50 61; piece 62 65 ]);
      ("past the window", [ piece 36 39; piece 40 66; piece 67 68 ]);
    ]

let test_splice_keeps_nodes () =
  let t, window, old, outside = fixture () in
  let a, b, c = match old with [ a; b; c ] -> (a, b, c) | _ -> assert false in
  let ops = Avl.ops t in
  Avl.splice t window ~old old;
  Alcotest.(check int) "the same run: no descent" ops (Avl.ops t);
  (* A gap fill between kept nodes is one insert, no walk. *)
  let gap = read ~seq:50 46 49 in
  Avl.splice t window ~old [ a; gap; b; c ];
  Alcotest.(check int) "gap fill: one insert" (ops + 1) (Avl.ops t);
  check_spliced "gap fill" t ~outside [ a; gap; b; c ];
  let new_b = read ~seq:51 50 55 in
  let old = Avl.stab t window in
  Avl.splice t window ~old [ a; gap; new_b; c ];
  Alcotest.(check int) "one replacement: one walk" (ops + 3) (Avl.ops t);
  Alcotest.(check bool) "kept nodes are physically kept" true
    (List.for_all (fun x -> List.memq x (Avl.to_list t)) [ a; gap; new_b; c ]);
  check_spliced "replacement" t ~outside [ a; gap; new_b; c ];
  let t, window, old, outside = fixture () in
  let b = List.nth old 1 in
  let ops = Avl.ops t in
  Avl.splice t window ~old [ b ];
  Alcotest.(check int) "a kept middle node: two removes, no walk" (ops + 2) (Avl.ops t);
  check_spliced "kept middle node" t ~outside [ b ]

let test_splice_rejects_wrong_run () =
  let t, window, old, _ = fixture () in
  Alcotest.check_raises "a run longer than [old]"
    (Invalid_argument "Avl.splice: run longer than [old]") (fun () ->
      Avl.splice t window ~old:(List.tl old) [ read ~seq:60 40 45; read ~seq:61 50 55 ]);
  let t, _, old, _ = fixture () in
  Alcotest.check_raises "a run shorter than [old]"
    (Invalid_argument "Avl.splice: run shorter than [old]") (fun () ->
      Avl.splice t (Interval.make ~lo:44 ~hi:51) ~old
        [ read ~seq:70 40 45; read ~seq:71 50 55; read ~seq:72 60 65 ])

(* Random disjoint trees; a contiguous run of nodes, and pieces derived
   from it by keeping, dropping, re-making or splitting each node and
   filling the gaps around them. *)
let splice_gen =
  QCheck.Gen.(
    let* gaps = list_size (int_range 1 30) (pair (int_range 0 3) (int_range 1 6)) in
    let* i = int_range 0 (List.length gaps - 1) in
    let* j = int_range i (List.length gaps - 1) in
    let* edits = list_repeat (j - i + 1) (int_range 0 3) in
    let* fills = list_repeat (j - i + 2) bool in
    return (gaps, i, j, edits, fills))

let prop_splice =
  QCheck.Test.make ~name:"splice equals remove-then-insert" ~count:500 (QCheck.make splice_gen)
    (fun (gaps, i, j, edits, fills) ->
      let seq = ref 0 in
      let mk lo hi =
        incr seq;
        read ~seq:!seq lo hi
      in
      (* Node k covers [lo_k, lo_k + len - 1], [gap] bytes after node k - 1. *)
      let nodes, _ =
        List.fold_left
          (fun (acc, next) (gap, len) ->
            let lo = next + gap in
            (mk lo (lo + len - 1) :: acc, lo + len))
          ([], 0) gaps
      in
      let nodes = List.rev nodes in
      let lo_of a = Interval.lo a.Access.interval and hi_of a = Interval.hi a.Access.interval in
      let t = Avl.create () in
      List.iter (Avl.insert t) nodes;
      let run = List.filteri (fun k _ -> k >= i && k <= j) nodes in
      let outside = List.filter (fun a -> not (List.memq a run)) nodes in
      let first = List.hd run and last = List.nth run (List.length run - 1) in
      let window =
        if first == last then Interval.byte (lo_of first)
        else Interval.make ~lo:(hi_of first) ~hi:(lo_of last)
      in
      (* The free bytes before each run node, and after the last one. *)
      let prev_hi = if i = 0 then -1 else hi_of (List.nth nodes (i - 1)) in
      let next_lo = if j + 1 < List.length nodes then lo_of (List.nth nodes (j + 1)) else 1000 in
      let fill lo hi take = if take && lo <= hi then [ mk lo hi ] else [] in
      let edit a = function
        | 0 -> [ a ]
        | 1 -> []
        | 2 -> [ mk (lo_of a) (hi_of a) ]
        | _ when lo_of a < hi_of a -> [ mk (lo_of a) (lo_of a); mk (lo_of a + 1) (hi_of a) ]
        | _ -> [ a ]
      in
      let rec build before run edits fills =
        match (run, edits, fills) with
        | a :: run, e :: edits, f :: fills ->
            fill (before + 1) (lo_of a - 1) f @ edit a e @ build (hi_of a) run edits fills
        | [], _, [ f ] -> fill (before + 1) (next_lo - 1) f
        | _ -> assert false
      in
      let pieces = build prev_hi run edits fills in
      let old = Avl.stab t window in
      if not (List.equal ( == ) old run) then QCheck.Test.fail_reportf "stab missed the run";
      Avl.splice t window ~old pieces;
      Avl.invariants_ok t
      && List.equal ( == ) (Avl.to_list t) (List.sort by_lo (outside @ pieces))
      && Avl.size t = List.length outside + List.length pieces)

(* --- the list model of Algorithm 1 --- *)

module Model = struct
  type t = {
    merge : bool;
    mutable nodes : Access.t list;  (** sorted by lower bound, pairwise disjoint *)
    mutable inserts : int;
    mutable fragments : int;
    mutable merges : int;
    mutable race_checks : int;
    mutable peak : int;
  }

  let create ~merge =
    { merge; nodes = []; inserts = 0; fragments = 0; merges = 0; race_checks = 0; peak = 0 }

  (* Line 2 over every overlapping node, in order; the first racing one
     is the report. *)
  let race t access =
    List.find_map
      (fun existing ->
        if not (Interval.overlaps existing.Access.interval access.Access.interval) then None
        else begin
          t.race_checks <- t.race_checks + 1;
          match Race_rule.check ~order_aware:true ~existing ~incoming:access with
          | Race_rule.No_race -> None
          | Race_rule.Race _ | Race_rule.Predicted _ -> Some existing
        end)
      t.nodes

  let insert t access =
    t.inserts <- t.inserts + 1;
    match race t access with
    | Some existing -> Store_intf.Race_detected { existing; incoming = access }
    | None ->
        let iv = access.Access.interval in
        let window = Interval.make ~lo:(Interval.lo iv - 1) ~hi:(Interval.hi iv + 1) in
        let candidates, rest =
          List.partition (fun a -> Interval.overlaps a.Access.interval window) t.nodes
        in
        (* Touching no node counts no fragment, as in the store. *)
        let final =
          if candidates = [] then [ access ]
          else begin
            let pieces, created = Fragmenter.fragment ~candidates ~new_acc:access in
            t.fragments <- t.fragments + created;
            if not t.merge then pieces
            else begin
              let merged, n = Fragmenter.merge pieces in
              t.merges <- t.merges + n;
              merged
            end
          end
        in
        t.nodes <- List.merge by_lo rest final;
        t.peak <- Int.max t.peak (List.length t.nodes);
        Store_intf.Inserted

  let check t access =
    match race t access with
    | Some existing -> Store_intf.Race_detected { existing; incoming = access }
    | None -> Store_intf.Inserted
end

let same_outcome a b =
  match (a, b) with
  | Store_intf.Inserted, Store_intf.Inserted -> true
  | Store_intf.Race_detected r1, Store_intf.Race_detected r2 ->
      Access.equal r1.existing r2.existing && Access.equal r1.incoming r2.incoming
  | _ -> false

(* Replays the step language of the differential harness on the model
   and on a store, comparing contents, verdicts and counters after every
   step. *)
let agrees ~name ~store ~model steps =
  List.iteri
    (fun i step ->
      let open Test_differential in
      let outcome =
        match step with
        | Insert a -> Some (Model.insert model a, Disjoint_store.insert store a)
        | Check a -> Some (Model.check model a, Disjoint_store.check_only store a)
        | Note_epoch ->
            Disjoint_store.note_epoch store;
            None
        | Flush_finger ->
            Disjoint_store.flush_finger store;
            None
        | Clear ->
            model.Model.nodes <- [];
            Disjoint_store.clear store;
            None
      in
      (match outcome with
      | Some (m, s) when not (same_outcome m s) ->
          QCheck.Test.fail_reportf "%s: step %d verdict differs from the model" name i
      | _ -> ());
      if not (List.equal Access.equal model.Model.nodes (Disjoint_store.to_list store)) then
        QCheck.Test.fail_reportf "%s: step %d contents differ from the model:@.%a" name i
          Disjoint_store.pp store;
      let s = Disjoint_store.stats store in
      let counters =
        [
          ("inserts", model.Model.inserts, s.Store_intf.inserts);
          ("fragments", model.Model.fragments, s.Store_intf.fragments_created);
          ("merges", model.Model.merges, s.Store_intf.merges_performed);
          ("race checks", model.Model.race_checks, s.Store_intf.race_checks);
          ("peak nodes", model.Model.peak, s.Store_intf.peak_nodes);
        ]
      in
      List.iter
        (fun (what, m, got) ->
          if m <> got then
            QCheck.Test.fail_reportf "%s: step %d %s: model %d, store %d" name i what m got)
        counters;
      if not (Disjoint_store.self_check store) then
        QCheck.Test.fail_reportf "%s: step %d store invariants violated" name i)
    steps;
  true

let configurations =
  [
    ("finger", fun () -> (Disjoint_store.create (), Model.create ~merge:true));
    ("no finger", fun () -> (Disjoint_store.create ~fast_path:false (), Model.create ~merge:true));
    ("merge off", fun () -> (Disjoint_store.create ~merge:false (), Model.create ~merge:false));
  ]

let all_agree steps =
  List.for_all
    (fun (name, make) ->
      let store, model = make () in
      agrees ~name ~store ~model steps)
    configurations

let prop_model_programs =
  QCheck.Test.make ~name:"store = list model on random programs" ~count:300
    Test_stores.arb_program (fun program ->
      all_agree
        (List.map (fun a -> Test_differential.Insert a) (Test_stores.build_accesses program)))

let prop_model_runs =
  QCheck.Test.make ~name:"store = list model on interrupted runs" ~count:300
    Test_differential.arb_run_stream (fun raw ->
      all_agree (Test_differential.decode_run_steps raw))

(* --- a real trace --- *)

(* The CI-scale Figure 9 configuration of the bench (scale 0.02: 12 800
   vertices, 4 ranks, locality window 20, the duplicated MPI_Put), one
   Louvain iteration (34 006 inserts into stores of ~4 000 nodes; each
   [self_check] walks the whole tree, so this takes seconds),
   routed as the analyzer routes it: one store per rank and window, its
   epoch noted at open and its finger flushed at close, every store of a
   window cleared once all ranks closed an epoch on it, and a local
   access that names no window entering every open store of its rank. *)
let test_minivite_trace_self_check () =
  let nprocs = 4 in
  let recorder = Rma_trace.Recorder.create () in
  let params =
    {
      Minivite.Louvain.default_params with
      Minivite.Louvain.graph =
        {
          Minivite.Graph.default_params with
          Minivite.Graph.n_vertices = 12_800;
          locality_window = 20;
        };
      inject_race = true;
      iterations = 1;
    }
  in
  ignore (Minivite.Louvain.run params ~nprocs ~observer:(Rma_trace.Recorder.observer recorder) ());
  let stores = Hashtbl.create 16 and opened = Hashtbl.create 16 and closers = Hashtbl.create 4 in
  let store_of key =
    match Hashtbl.find_opt stores key with
    | Some s -> s
    | None ->
        let s = Disjoint_store.create () in
        Hashtbl.replace stores key s;
        s
  in
  let inserts = ref 0 and races = ref 0 in
  let insert store access =
    incr inserts;
    (match Disjoint_store.insert store access with
    | Store_intf.Race_detected _ -> incr races
    | Store_intf.Inserted -> ());
    if not (Disjoint_store.self_check store) then
      Alcotest.failf "store invariants violated at insert %d (%a)" !inserts Access.pp access
  in
  List.iter
    (function
      | Mpi_sim.Event.Access { space; access; win = Some win; relevant = true; _ } ->
          insert (store_of (space, win)) access
      | Mpi_sim.Event.Access { space; access; win = None; relevant = true; _ } ->
          Hashtbl.iter
            (fun key store -> if fst key = space && Hashtbl.mem opened key then insert store access)
            stores
      | Mpi_sim.Event.Epoch_opened { win; rank; _ } ->
          Hashtbl.replace opened (rank, win) ();
          Disjoint_store.note_epoch (store_of (rank, win))
      | Mpi_sim.Event.Epoch_closed { win; rank; _ } ->
          Hashtbl.remove opened (rank, win);
          Disjoint_store.flush_finger (store_of (rank, win));
          Hashtbl.replace closers (win, rank) ();
          let ranks = List.init nprocs Fun.id in
          if List.for_all (fun r -> Hashtbl.mem closers (win, r)) ranks then begin
            List.iter (fun r -> Hashtbl.remove closers (win, r)) ranks;
            Hashtbl.iter (fun (_, w) store -> if w = win then Disjoint_store.clear store) stores
          end
      | _ -> ())
    (Rma_trace.Recorder.events recorder);
  let fragments =
    Hashtbl.fold (fun _ s n -> n + (Disjoint_store.stats s).Store_intf.fragments_created) stores 0
  in
  Alcotest.(check bool) (Printf.sprintf "%d inserts replayed" !inserts) true (!inserts > 10_000);
  Alcotest.(check bool) (Printf.sprintf "%d fragments" fragments) true (fragments > 0);
  Alcotest.(check bool) (Printf.sprintf "%d races" !races) true (!races > 0)

let suite =
  [
    Alcotest.test_case "splice: fewer, equal, more pieces" `Quick test_splice_shapes;
    Alcotest.test_case "splice: kept nodes are left alone" `Quick test_splice_keeps_nodes;
    Alcotest.test_case "splice: a wrong run is refused" `Quick test_splice_rejects_wrong_run;
    QCheck_alcotest.to_alcotest prop_splice;
    QCheck_alcotest.to_alcotest prop_model_programs;
    QCheck_alcotest.to_alcotest prop_model_runs;
    Alcotest.test_case "MiniVite Figure 9 trace keeps the store invariants" `Slow
      test_minivite_trace_self_check;
  ]
