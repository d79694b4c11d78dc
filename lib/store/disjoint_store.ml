open Rma_access
module Obs = Rma_obs.Obs

(* The finger of the insert fast path: the most recently seeded or
   extended run of adjacent mergeable accesses, held OUT of the AVL tree
   as exactly the node the slow path would hold for the same stream. It
   owns an open "clear zone" (p_zone_lo, p_zone_hi) certified to contain
   no tree byte, so extending the run inside the zone needs no tree
   descent at all. *)
type pending = {
  mutable p_acc : Access.t;
  p_zone_lo : int;  (* exclusive lower edge of the clear zone *)
  p_zone_hi : int;  (* exclusive upper edge of the clear zone *)
}

type t = {
  tree : Avl.t;
  order_aware : bool;
  merge : bool;
  fast_path : bool;
      (* Finger cache enabled; forced off when [merge = false] because
         the fast path IS a merge. *)
  recorder : Flight_recorder.t option;
      (* Present iff Flight_recorder.is_enabled () held at creation; the
         disabled cost is this option match per insert. *)
  gov : Governor.t option;
      (* Present iff the store was created under a bounded budget;
         ungoverned inserts pay one option match. *)
  mutable finger : pending option;
  mutable peak_nodes : int;
  mutable inserts : int;
  mutable fragments_created : int;
  mutable merges_performed : int;
  mutable race_checks : int;
  mutable finger_hits : int;
}

(* How far beyond a new finger its clear zone may be claimed. A cap keeps a
   zone claim from spanning a huge empty tree (which would force a flush
   on every far-away insert); large enough that a Code 2 style run grows
   for thousands of bytes per claim. *)
let zone_headroom = 4096

(* Rough resident cost of one tree node: the AVL node (5 words), the
   access record (5 words), its interval (3 words) and a one-word share
   of the debug-info strings — 14 words = 112 bytes on 64-bit. Only
   used to translate a [max_bytes] budget into a node cap. *)
let approx_node_bytes = 112

let create ?(order_aware = true) ?(merge = true) ?(fast_path = true) ?budget () =
  {
    tree = Avl.create ();
    order_aware;
    merge;
    fast_path = fast_path && merge;
    recorder = Flight_recorder.create ();
    gov = Governor.create ?budget ~bytes_per_node:approx_node_bytes ();
    finger = None;
    peak_nodes = 0;
    inserts = 0;
    fragments_created = 0;
    merges_performed = 0;
    race_checks = 0;
    finger_hits = 0;
  }

let recorder t = t.recorder

let record_origin t access =
  match t.recorder with Some r -> Flight_recorder.record r access | None -> ()

(* Effective store contents = tree nodes + the finger run. *)
let size t = Avl.size t.tree + match t.finger with Some _ -> 1 | None -> 0

let bump_peak t =
  let s = size t in
  if s > t.peak_nodes then t.peak_nodes <- s

let obs_finger_hits =
  Obs.counter ~help:"Inserts absorbed in O(1) by the finger cache" "store.disjoint.finger_hits"

(* The finger is already the node the slow path would hold, and no tree
   byte lies inside its open zone; it may touch a tree node at either
   end, but then the slow path holds the two side by side as well. So a
   plain multiset insert leaves the stored contents unchanged. *)
let flush_finger t =
  match t.finger with
  | None -> ()
  | Some p ->
      t.finger <- None;
      Avl.insert t.tree p.p_acc

(* {2 Slow path — Algorithm 1 verbatim} *)

(* The window of get_intersecting_accesses (Algorithm 1 line 5): the
   access widened by one byte on each side so merging can also see
   accesses adjacent to the new one (the Figure 8b loop produces
   adjacent, never overlapping, accesses). One interval-tree stab of it
   serves both the data-race check (line 2) and the fragmentation
   input. *)
let widened iv = Interval.make ~lo:(Interval.lo iv - 1) ~hi:(Interval.hi iv + 1)

(* data_race_detection (line 2): the new access against every overlapping
   recorded access. The interval-tree stab is exact, which is precisely
   what removes the legacy false negatives. *)
let detect_race t access candidates =
  List.find_map
    (fun existing ->
      if Interval.overlaps existing.Access.interval access.Access.interval then begin
        t.race_checks <- t.race_checks + 1;
        match Race_rule.check ~order_aware:t.order_aware ~existing ~incoming:access with
        | Race_rule.No_race -> None
        | Race_rule.Race _ | Race_rule.Predicted _ -> Some existing
      end
      else None)
    candidates

let check_only t access =
  flush_finger t;
  match detect_race t access (Avl.stab t.tree access.Access.interval) with
  | Some existing -> Store_intf.Race_detected { existing; incoming = access }
  | None -> Store_intf.Inserted

let note_epoch t =
  (* The finger never crosses an epoch boundary: epoch-close node
     sampling and per-epoch recorder stamps must see the same tree the
     slow path would have built. *)
  flush_finger t;
  Governor.note_epoch t.gov;
  match t.recorder with Some r -> Flight_recorder.note_epoch r | None -> ()

(* {2 Budget governance — DESIGN.md §11} *)

let spill t g =
  let victims =
    Governor.spill_victims g ~size:(size t)
      ~seq_of:(fun a -> a.Access.seq)
      (Avl.to_list t.tree)
  in
  List.iter (fun a -> ignore (Avl.remove t.tree a)) victims;
  Governor.record_drops g (List.length victims)

let coarsen t g =
  let merged, n = Governor.coarsen_accesses (Avl.to_list t.tree) in
  if n > 0 then begin
    Avl.clear t.tree;
    List.iter (fun a -> Avl.insert t.tree a) merged;
    Governor.record_drops g n
  end

let enforce_budget t =
  match t.gov with
  | None -> ()
  | Some g ->
      if Governor.over g ~size:(size t) then begin
        (* Victim selection needs every node in the tree. *)
        flush_finger t;
        match (Governor.budget g).Budget.policy with
        | Budget.Fail_fast -> Governor.exhausted ~store:"disjoint" ~size:(size t) g
        | Budget.Spill_oldest_epoch -> spill t g
        | Budget.Coarsen ->
            coarsen t g;
            if Governor.over g ~size:(size t) then spill t g
      end

(* Make [acc] the new finger, claiming the open zone (pred_hi, succ_lo)
   that a clearance descent certified free of tree bytes: at most
   [zone_headroom] bytes each way, and never the bytes of the old finger,
   which are about to become tree bytes. Precondition: the old finger
   lies wholly on one side of [acc]. *)
let seed_finger t acc ~pred_hi ~succ_lo =
  let iv = acc.Access.interval in
  let lo = Interval.lo iv and hi = Interval.hi iv in
  let zl = Int.max pred_hi (lo - 1 - zone_headroom)
  and zh = Int.min succ_lo (hi + 1 + zone_headroom) in
  let zl, zh =
    match t.finger with
    | None -> (zl, zh)
    | Some p ->
        let fiv = p.p_acc.Access.interval in
        if Interval.hi fiv < lo then (Int.max zl (Interval.hi fiv), zh)
        else (zl, Int.min zh (Interval.lo fiv))
  in
  flush_finger t;
  t.finger <- Some { p_acc = acc; p_zone_lo = zl; p_zone_hi = zh }

(* finish_insertion (line 8) for a single merged piece on the fast path:
   hold it as the finger instead of inserting it when no tree byte lies
   inside it, so the rest of an interrupted run extends in O(1). The gap
   needs no one-byte widening: every mergeable node inside the access's
   widened window was a stab candidate and is part of [piece], and a tree
   node touching [piece] only bounds the zone, which [try_extend]'s
   widened window must stay strictly inside. An old finger that survived
   lies beyond the access's reach, hence wholly on one side of [piece]. *)
let settle_piece t piece =
  match Avl.clearance t.tree piece.Access.interval with
  | Avl.Clear { pred_hi; succ_lo } -> seed_finger t piece ~pred_hi ~succ_lo
  | Avl.Blocked -> Avl.insert t.tree piece

let slow_insert t access window =
  let candidates = Avl.stab t.tree window in
  match candidates with
  | [] ->
      (* Nothing overlaps or touches — plain insertion. *)
      record_origin t access;
      Avl.insert t.tree access;
      bump_peak t;
      Store_intf.Inserted
  | _ -> (
      match detect_race t access candidates with
      | Some existing -> Store_intf.Race_detected { existing; incoming = access }
      | None ->
          record_origin t access;
          (* Lines 6-7: fragment_accesses (§4.1), merge_accesses (§4.2). *)
          let pieces, created = Fragmenter.fragment ~candidates ~new_acc:access in
          t.fragments_created <- t.fragments_created + created;
          let final, merges = if t.merge then Fragmenter.merge pieces else (pieces, 0) in
          t.merges_performed <- t.merges_performed + merges;
          (* finish_insertion (line 8): splice the new disjoint pieces
             over the old accesses' nodes. A single piece reaching past
             the one node it replaces may become the finger instead. *)
          (match (final, candidates) with
          | [ piece ], [ old ] when Interval.equal piece.Access.interval old.Access.interval ->
              Avl.splice t.tree window ~old:candidates final
          | [ piece ], _ when t.fast_path ->
              Avl.splice t.tree window ~old:candidates [];
              settle_piece t piece
          | _ -> Avl.splice t.tree window ~old:candidates final);
          bump_peak t;
          Store_intf.Inserted)

(* {2 Fast path} *)

(* O(1) extension of the finger run by a strictly adjacent mergeable
   access. The widened window must sit inside the run's clear zone, so
   no tree byte can be involved and the result is byte-for-byte what
   the slow path would produce: pass_through + emit + merge, i.e. one
   fragment and one merge. *)
let try_extend t access =
  match t.finger with
  | None -> false
  | Some p ->
      let iv = access.Access.interval in
      if
        Access.mergeable p.p_acc access
        && Interval.adjacent p.p_acc.Access.interval iv
        && Interval.lo iv - 1 > p.p_zone_lo
        && Interval.hi iv + 1 < p.p_zone_hi
      then begin
        record_origin t access;
        p.p_acc <-
          Access.with_interval
            (Access.most_recent p.p_acc access)
            (Interval.hull p.p_acc.Access.interval iv);
        t.fragments_created <- t.fragments_created + 1;
        t.merges_performed <- t.merges_performed + 1;
        t.finger_hits <- t.finger_hits + 1;
        Obs.incr obs_finger_hits;
        true
      end
      else false

(* Make [access] the new finger with one clearance descent instead of
   the slow path's stab (and, on later extensions, remove + insert). The
   descent certifies the one-byte-widened window, so no tree node even
   touches the access. Precondition: the finger's zone does not reach the
   widened window — callers flush it first otherwise — so the old finger
   lies wholly on one side of the window. *)
let try_seed t access window =
  match Avl.clearance t.tree window with
  | Avl.Blocked -> false
  | Avl.Clear { pred_hi; succ_lo } ->
      record_origin t access;
      seed_finger t access ~pred_hi ~succ_lo;
      bump_peak t;
      true

let insert_uninstrumented t access =
  t.inserts <- t.inserts + 1;
  let outcome =
    if not t.fast_path then slow_insert t access (widened access.Access.interval)
    else if try_extend t access then Store_intf.Inserted
    else begin
      (* A finger whose zone the widened window reaches could take part
         in the stab, race check or fragmentation below: flush it. *)
      let window = widened access.Access.interval in
      (match t.finger with
      | Some p when Interval.hi window > p.p_zone_lo && Interval.lo window < p.p_zone_hi ->
          flush_finger t
      | _ -> ());
      if try_seed t access window then Store_intf.Inserted else slow_insert t access window
    end
  in
  (match outcome with
  | Store_intf.Inserted ->
      Governor.observe_seq t.gov access.Access.seq;
      enforce_budget t
  | Store_intf.Race_detected _ -> ());
  outcome

let obs_insert_seconds =
  Obs.histogram ~help:"Wall time of one Disjoint_store.insert (Algorithm 1)"
    "store.disjoint.insert_seconds"

let obs_fragments =
  Obs.histogram ~unit_:"count" ~help:"Fragments created per insert (section 4.1)"
    "store.disjoint.fragments_per_insert"

let obs_merges =
  Obs.histogram ~unit_:"count" ~help:"Node pairs merged per insert (section 4.2)"
    "store.disjoint.merges_per_insert"

let insert t access =
  if not (Obs.is_enabled ()) then insert_uninstrumented t access
  else begin
    let t0 = Rma_util.Timer.now () in
    let f0 = t.fragments_created and m0 = t.merges_performed in
    let outcome = insert_uninstrumented t access in
    Obs.observe obs_insert_seconds (Rma_util.Timer.now () -. t0);
    Obs.observe_int obs_fragments (t.fragments_created - f0);
    Obs.observe_int obs_merges (t.merges_performed - m0);
    outcome
  end

let stats t =
  {
    Store_intf.nodes = size t;
    peak_nodes = t.peak_nodes;
    inserts = t.inserts;
    fragments_created = t.fragments_created;
    merges_performed = t.merges_performed;
    race_checks = t.race_checks;
    tree_ops = Avl.ops t.tree;
    degraded_drops = Governor.drops t.gov;
  }

let finger_hits t = t.finger_hits

let to_list t =
  let tree = Avl.to_list t.tree in
  match t.finger with
  | None -> tree
  | Some p ->
      let by_lo a b = Interval.compare_lo a.Access.interval b.Access.interval in
      List.merge by_lo tree [ p.p_acc ]

let clear t =
  (* End of epoch: the finger is discarded with the tree, never flushed
     into it — statistics stay cumulative either way. *)
  t.finger <- None;
  Avl.clear t.tree;
  match t.recorder with Some r -> Flight_recorder.clear r | None -> ()

let self_check t =
  let finger_ok p =
    let iv = p.p_acc.Access.interval in
    p.p_zone_lo < Interval.lo iv
    && Interval.hi iv < p.p_zone_hi
    && (p.p_zone_lo >= p.p_zone_hi - 1
       || Avl.stab t.tree (Interval.make ~lo:(p.p_zone_lo + 1) ~hi:(p.p_zone_hi - 1)) = [])
  in
  Option.fold ~none:true ~some:finger_ok t.finger && Avl.invariants_ok t.tree

let pp fmt t =
  Avl.pp fmt t.tree;
  Option.iter (fun p -> Format.fprintf fmt "pending %a@." Access.pp p.p_acc) t.finger
