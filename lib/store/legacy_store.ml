open Rma_access
module Obs = Rma_obs.Obs

type t = {
  tree : Avl.t;
  gov : Governor.t option;
  mutable peak_nodes : int;
  mutable inserts : int;
  mutable race_checks : int;
}

(* AVL node + access record + interval, as in Disjoint_store; the
   legacy store never fragments, so the estimate is identical. *)
let approx_node_bytes = 112

let create ?budget () =
  {
    tree = Avl.create ();
    gov = Governor.create ?budget ~bytes_per_node:approx_node_bytes ();
    peak_nodes = 0;
    inserts = 0;
    race_checks = 0;
  }

let spill t g =
  let victims =
    Governor.spill_victims g ~size:(Avl.size t.tree)
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
      if Governor.over g ~size:(Avl.size t.tree) then begin
        match (Governor.budget g).Budget.policy with
        | Budget.Fail_fast ->
            Governor.exhausted ~store:"legacy" ~size:(Avl.size t.tree) g
        | Budget.Spill_oldest_epoch -> spill t g
        | Budget.Coarsen ->
            coarsen t g;
            if Governor.over g ~size:(Avl.size t.tree) then spill t g
      end

let obs_insert_seconds =
  Obs.histogram ~help:"Wall time of one Legacy_store.insert" "store.legacy.insert_seconds"

let obs_race_checks =
  Obs.histogram ~unit_:"count" ~help:"Pairwise conflict checks per insert (search-path length)"
    "store.legacy.race_checks_per_insert"

let insert_uninstrumented t access =
  t.inserts <- t.inserts + 1;
  (* First traversal: conflict check restricted to the BST search path —
     the lower-bound-only approximation the paper identifies as the source
     of legacy false negatives. *)
  let path = Avl.search_path t.tree access in
  let conflict =
    List.find_map
      (fun existing ->
        t.race_checks <- t.race_checks + 1;
        match Race_rule.check ~order_aware:false ~existing ~incoming:access with
        | Race_rule.No_race -> None
        | Race_rule.Race _ | Race_rule.Predicted _ -> Some existing)
      path
  in
  match conflict with
  | Some existing -> Store_intf.Race_detected { existing; incoming = access }
  | None ->
      (* Second traversal: plain multiset insertion; nothing is ever
         fragmented or merged. *)
      Avl.insert t.tree access;
      if Avl.size t.tree > t.peak_nodes then t.peak_nodes <- Avl.size t.tree;
      Governor.observe_seq t.gov access.Access.seq;
      enforce_budget t;
      Store_intf.Inserted

let insert t access =
  if not (Obs.is_enabled ()) then insert_uninstrumented t access
  else begin
    let t0 = Rma_util.Timer.now () in
    let checks0 = t.race_checks in
    let outcome = insert_uninstrumented t access in
    Obs.observe obs_insert_seconds (Rma_util.Timer.now () -. t0);
    Obs.observe_int obs_race_checks (t.race_checks - checks0);
    outcome
  end

let size t = Avl.size t.tree

let stats t =
  {
    Store_intf.nodes = Avl.size t.tree;
    peak_nodes = t.peak_nodes;
    inserts = t.inserts;
    fragments_created = 0;
    merges_performed = 0;
    race_checks = t.race_checks;
    tree_ops = Avl.ops t.tree;
    degraded_drops = Governor.drops t.gov;
  }

let to_list t = Avl.to_list t.tree

let note_epoch t = Governor.note_epoch t.gov

let clear t = Avl.clear t.tree

let pp fmt t = Avl.pp fmt t.tree
