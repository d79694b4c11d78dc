open Rma_access
(** Shared vocabulary for the two access stores. *)

type insert_outcome =
  | Inserted  (** No conflict; the access is now recorded. *)
  | Race_detected of { existing : Access.t; incoming : Access.t }
      (** A data race: [incoming] conflicts with the already-recorded
          [existing]. Tools following the paper abort the program and
          report both debug locations (Figure 9b). The access is NOT
          recorded when a race is reported. *)

type stats = {
  nodes : int;  (** Current node count — the paper's "size of the BST". *)
  peak_nodes : int;  (** Largest node count observed. *)
  inserts : int;  (** Accesses presented to the store. *)
  fragments_created : int;  (** Pieces produced by fragmentation (§4.1). *)
  merges_performed : int;  (** Node pairs coalesced by merging (§4.2). *)
  race_checks : int;  (** Pairwise access comparisons during detection. *)
  tree_ops : int;
      (** Interval-tree descents performed (inserts, removes, stabs,
          search paths, clearance probes) — the cost the disjoint
          store's insert fast path exists to cut. *)
  degraded_drops : int;
      (** Nodes evicted or coarsened away by budget governance
          ({!Governor}, DESIGN.md §11). Zero on an unbudgeted store;
          non-zero means detection may have lost information and every
          downstream report must say so ([degraded_drops] in
          {!Rma_report.Harness.metrics}, downgraded confidence in
          SARIF). *)
}

let zero_stats =
  {
    nodes = 0;
    peak_nodes = 0;
    inserts = 0;
    fragments_created = 0;
    merges_performed = 0;
    race_checks = 0;
    tree_ops = 0;
    degraded_drops = 0;
  }

module type S = sig
  type t

  val insert : t -> Access.t -> insert_outcome
  (** Record one access, first checking it against the conflicting
      recorded accesses (Algorithm 1 line 2 in the disjoint store, the
      search-path approximation in the legacy store). On a budgeted
      store ({!Governor}) a successful insert may additionally trigger
      the budget's degradation policy; under [Fail_fast] that raises
      {!Budget.Exhausted}. *)

  val size : t -> int
  (** Current node count. *)

  val stats : t -> stats
  (** Cumulative counters since creation; {!clear} does not reset
      them. *)

  val to_list : t -> Access.t list
  (** Recorded accesses in increasing lower-bound order. *)

  val note_epoch : t -> unit
  (** Tell the store an epoch boundary passed: accesses recorded so far
      become "completed-epoch" for the [Spill_oldest_epoch] governance
      policy, and stores with a flight recorder advance its epoch
      stamp. Called by the analyzer at [Epoch_opened]. *)

  val clear : t -> unit
  (** Empties the tree (end of epoch) but keeps cumulative statistics. *)

  val pp : Format.formatter -> t -> unit
end
