open Rma_access

type region = {
  base : int;
  len : int;
  stride : int;
  count : int;
  kind : Access_kind.t;
  issuer : int;
  seq : int;
  debug : Debug_info.t;
  tinfo : Access.thread_info;
}

let region_hull r = Interval.make ~lo:r.base ~hi:(r.base + ((r.count - 1) * r.stride) + r.len - 1)

let region_covers r iv =
  (* Does any element of the region overlap [iv]? Elements start at
     base + k*stride; it suffices to check the elements whose start lies
     within one stride of the query. *)
  if not (Interval.overlaps (region_hull r) iv) then false
  else begin
    let lo = Interval.lo iv and hi = Interval.hi iv in
    let first = Int.max 0 ((lo - r.base - r.len + 1 + r.stride - 1) / r.stride) in
    let last = Int.min (r.count - 1) ((hi - r.base) / r.stride) in
    let rec any k =
      k <= last
      &&
      let e_lo = r.base + (k * r.stride) in
      (e_lo <= hi && lo <= e_lo + r.len - 1) || any (k + 1)
    in
    any first
  end

let region_of_access (a : Access.t) =
  {
    base = Interval.lo a.Access.interval;
    len = Interval.length a.Access.interval;
    stride = Interval.length a.Access.interval;
    count = 1;
    kind = a.Access.kind;
    issuer = a.Access.issuer;
    seq = a.Access.seq;
    debug = a.Access.debug;
    tinfo = a.Access.thread;
  }

let access_of_region r =
  Access.make_threaded ~thread:r.tinfo ~interval:(region_hull r) ~kind:r.kind ~issuer:r.issuer
    ~seq:r.seq ~debug:r.debug

let element_accesses r =
  List.init r.count (fun k ->
      Access.make_threaded ~thread:r.tinfo
        ~interval:(Interval.of_range ~addr:(r.base + (k * r.stride)) ~len:r.len)
        ~kind:r.kind ~issuer:r.issuer ~seq:r.seq ~debug:r.debug)

module Tree = Interval_tree.Make (struct
  type t = region

  let interval = region_hull
  let tiebreak r = r.seq

  let equal a b =
    a.base = b.base && a.len = b.len && a.stride = b.stride && a.count = b.count
    && Access_kind.equal a.kind b.kind && a.issuer = b.issuer && a.seq = b.seq
    && Debug_info.equal a.debug b.debug
    && Access.thread_equal a.tinfo b.tinfo

  let pp fmt r =
    Format.fprintf fmt "(base %d, len %d, stride %d, count %d, %a, rank %d, %a)" r.base r.len
      r.stride r.count Access_kind.pp r.kind r.issuer Debug_info.pp r.debug
end)

type t = {
  tree : Tree.t;
  order_aware : bool;
  gov : Governor.t option;
  mutable peak_nodes : int;
  mutable inserts : int;
  mutable fragments_created : int;
  mutable merges_performed : int;
  mutable race_checks : int;
}

(* Tree node + region record (8 fields) + a share of the debug
   strings; regions are a little heavier than plain accesses. *)
let approx_node_bytes = 144

let create ?(order_aware = true) ?budget () =
  {
    tree = Tree.create ();
    order_aware;
    gov = Governor.create ?budget ~bytes_per_node:approx_node_bytes ();
    peak_nodes = 0;
    inserts = 0;
    fragments_created = 0;
    merges_performed = 0;
    race_checks = 0;
  }

let spill t g =
  let victims =
    Governor.spill_victims g ~size:(Tree.size t.tree) ~seq_of:(fun r -> r.seq)
      (Tree.to_list t.tree)
  in
  List.iter (fun r -> ignore (Tree.remove t.tree r)) victims;
  Governor.record_drops g (List.length victims)

(* Coarsening for regions: merge a perfect stride continuation — same
   kind, issuer, element length and stride, with the second region's
   first element landing exactly one stride after the first region's
   last — ignoring debug-info inequality. Coverage is exactly
   preserved (unlike hull merging, which would swallow gap bytes). *)
let coarsen t g =
  let continuation a b =
    Access_kind.equal a.kind b.kind && a.issuer = b.issuer && a.len = b.len
    && Access.thread_equal a.tinfo b.tinfo
    && (a.stride = b.stride || b.count = 1)
    && b.base = a.base + (a.count * a.stride)
  in
  let join a b =
    let seq = Int.max a.seq b.seq in
    let debug = if b.seq >= a.seq then b.debug else a.debug in
    { a with count = a.count + b.count; seq; debug }
  in
  let rec go merged acc = function
    | [] -> (List.rev acc, merged)
    | x :: rest -> (
        match acc with
        | prev :: acc' when continuation prev x -> go (merged + 1) (join prev x :: acc') rest
        | _ -> go merged (x :: acc) rest)
  in
  let coarse, n = go 0 [] (Tree.to_list t.tree) in
  if n > 0 then begin
    Tree.clear t.tree;
    List.iter (fun r -> Tree.insert t.tree r) coarse;
    Governor.record_drops g n
  end

let enforce_budget t =
  match t.gov with
  | None -> ()
  | Some g ->
      if Governor.over g ~size:(Tree.size t.tree) then begin
        match (Governor.budget g).Budget.policy with
        | Budget.Fail_fast ->
            Governor.exhausted ~store:"strided" ~size:(Tree.size t.tree) g
        | Budget.Spill_oldest_epoch -> spill t g
        | Budget.Coarsen ->
            coarsen t g;
            if Governor.over g ~size:(Tree.size t.tree) then spill t g
      end

let note_peak t = if Tree.size t.tree > t.peak_nodes then t.peak_nodes <- Tree.size t.tree

(* A region is mergeable with an access of the same element shape and
   identity. *)
let extendable r (a : Access.t) =
  Interval.length a.Access.interval = r.len
  && Access_kind.equal a.Access.kind r.kind
  && a.Access.issuer = r.issuer
  && Debug_info.equal a.Access.debug r.debug
  && Access.thread_equal a.Access.thread r.tinfo

(* Where the access would land as the region's next element: count = 1
   regions accept any position after the element (fixing the stride);
   larger regions require exactly one stride past the last element. *)
let extension_of r (a : Access.t) =
  if not (extendable r a) then None
  else begin
    let lo = Interval.lo a.Access.interval in
    if r.count = 1 then begin
      (* The second element fixes the stride; it must not overlap the
         first and must stay within the lookbehind horizon. *)
      if lo - r.base >= r.len && lo - r.base <= 4096 then
        Some { r with stride = lo - r.base; count = 2; seq = a.Access.seq }
      else None
    end
    else if lo = r.base + (r.count * r.stride) then
      Some { r with count = r.count + 1; seq = a.Access.seq }
    else None
  end

let detect_race t (access : Access.t) candidates =
  List.find_map
    (fun r ->
      if region_covers r access.Access.interval then begin
        t.race_checks <- t.race_checks + 1;
        let existing = access_of_region r in
        match Race_rule.check ~order_aware:t.order_aware ~existing ~incoming:access with
        | Race_rule.No_race -> None
        | Race_rule.Race _ | Race_rule.Predicted _ -> Some existing
      end
      else None)
    candidates

module Obs = Rma_obs.Obs

let obs_insert_seconds =
  Obs.histogram ~help:"Wall time of one Strided_store.insert" "store.strided.insert_seconds"

let obs_merges =
  Obs.histogram ~unit_:"count" ~help:"Region extensions/merges per insert (section 6(3))"
    "store.strided.merges_per_insert"

let insert_unbudgeted t access =
  t.inserts <- t.inserts + 1;
  let iv = access.Access.interval in
  let wide = Interval.make ~lo:(Interval.lo iv - 1) ~hi:(Interval.hi iv + 1) in
  (* Hull-overlap candidates; widen generously so stride extension can
     also see regions whose hull ends well before this access. *)
  let near = Tree.stab t.tree wide in
  match detect_race t access near with
  | Some existing -> Store_intf.Race_detected { existing; incoming = access }
  | None -> (
      (* Regions whose elements already claim bytes of this access. Any
         region with an element overlapping [iv] has a hull overlapping
         [iv], so scanning [near] is exhaustive. *)
      let covering = List.filter (fun r -> region_covers r iv) near in
      (* Try to extend a region: the candidate whose next element slot is
         exactly this access. Look beyond the widened query — the gap can
         be larger than one byte — by also stabbing at the position a
         previous element would occupy. Only legal on virgin bytes: if
         any region already covers part of [iv], extending would record
         the access twice with independent dominance state (overlapping
         regions, one of them stale) — that case must fragment instead. *)
      let extension =
        if covering <> [] then None
        else begin
          let behind =
            Tree.stab t.tree
              (Interval.make ~lo:(Interval.lo iv - 4096) ~hi:(Interval.lo iv - 1))
          in
          (* Elements stay disjoint, so a base names one region. *)
          let all_candidates =
            List.sort_uniq (fun a b -> Int.compare a.base b.base) (near @ behind)
          in
          List.find_map
            (fun r ->
              match extension_of r access with
              | Some extended -> Some (r, extended)
              | None -> None)
            all_candidates
        end
      in
      match extension with
      | Some (old_region, extended) ->
          ignore (Tree.remove t.tree old_region);
          Tree.insert t.tree extended;
          t.merges_performed <- t.merges_performed + 1;
          note_peak t;
          Store_intf.Inserted
      | None ->
          if covering = [] then begin
            Tree.insert t.tree (region_of_access access);
            note_peak t;
            Store_intf.Inserted
          end
          else begin
            (* Conservative fallback: explode the covering regions into
               their elements and run the standard fragmentation and
               merging over them. *)
            let elements =
              List.concat_map element_accesses covering
              |> List.sort (fun a b -> Interval.compare_lo a.Access.interval b.Access.interval)
            in
            let overlapping_or_adjacent =
              List.filter
                (fun e ->
                  Interval.overlaps e.Access.interval iv || Interval.adjacent e.Access.interval iv)
                elements
            in
            let untouched =
              List.filter (fun e -> not (List.memq e overlapping_or_adjacent)) elements
            in
            let pieces, created =
              Fragmenter.fragment ~candidates:overlapping_or_adjacent ~new_acc:access
            in
            t.fragments_created <- t.fragments_created + created;
            let merged, merges = Fragmenter.merge pieces in
            t.merges_performed <- t.merges_performed + merges;
            List.iter (fun r -> ignore (Tree.remove t.tree r)) covering;
            List.iter (fun a -> Tree.insert t.tree (region_of_access a)) untouched;
            List.iter (fun a -> Tree.insert t.tree (region_of_access a)) merged;
            note_peak t;
            Store_intf.Inserted
          end)

let insert_uninstrumented t access =
  let outcome = insert_unbudgeted t access in
  (match outcome with
  | Store_intf.Inserted ->
      Governor.observe_seq t.gov access.Access.seq;
      enforce_budget t
  | Store_intf.Race_detected _ -> ());
  outcome

let insert t access =
  if not (Obs.is_enabled ()) then insert_uninstrumented t access
  else begin
    let t0 = Rma_util.Timer.now () in
    let m0 = t.merges_performed in
    let outcome = insert_uninstrumented t access in
    Obs.observe obs_insert_seconds (Rma_util.Timer.now () -. t0);
    Obs.observe_int obs_merges (t.merges_performed - m0);
    outcome
  end

let size t = Tree.size t.tree

let stats t =
  {
    Store_intf.nodes = Tree.size t.tree;
    peak_nodes = t.peak_nodes;
    inserts = t.inserts;
    fragments_created = t.fragments_created;
    merges_performed = t.merges_performed;
    race_checks = t.race_checks;
    tree_ops = Tree.ops t.tree;
    degraded_drops = Governor.drops t.gov;
  }

let regions t = Tree.to_list t.tree

let to_list t = List.map access_of_region (regions t)

let note_epoch t = Governor.note_epoch t.gov

let clear t = Tree.clear t.tree

let pp fmt t = Tree.pp fmt t.tree
