(** The paper's contribution: a store whose intervals stay disjoint
    through fragmentation (§4.1) and compact through merging (§4.2) —
    Algorithm 1.

    On each insertion the store (1) checks the new access against every
    genuinely overlapping recorded access (exact interval-tree stabbing,
    so the legacy lower-bound false negatives disappear), (2) retrieves
    the overlapping-or-adjacent accesses, (3) fragments the overlapping
    ones into disjoint pieces whose kinds follow the Table 1 dominance
    rule, (4) merges adjacent pieces with equal kind and debug info, and
    (5) replaces the old nodes with the merged pieces.

    [~merge:false] disables step (4) — fragmentation only, the state
    depicted in Figure 5b — and is the ablation showing why merging is
    needed ("each new access possibly increases the nodes in the BST by
    two"). [~order_aware:false] reinstates the legacy conflict rule for
    the order-awareness ablation. *)

type t

val create :
  ?order_aware:bool -> ?merge:bool -> ?fast_path:bool -> ?budget:Budget.t -> unit -> t
(** Defaults: [order_aware = true], [merge = true], [fast_path = true]
    — the published contribution plus the finger-cache fast path.

    [~fast_path:false] disables the finger cache entirely (every insert
    runs Algorithm 1 against the tree); it is also forced off by
    [~merge:false], because the fast path coalesces adjacent accesses —
    i.e. it {e is} a merge.

    [?budget] (default none: unbounded) bounds the store: an insert
    leaving the store over the effective node cap triggers the budget's
    degradation policy —
    {!Budget.Exhausted} under [Fail_fast], oldest-first
    eviction under [Spill_oldest_epoch], provenance-discarding merging
    under [Coarsen] — with every lost node counted in the
    [degraded_drops] statistic. See {!Governor} and DESIGN.md §11. *)

include Store_intf.S with type t := t

val check_only : t -> Rma_access.Access.t -> Store_intf.insert_outcome
(** The race check of [insert] without the insertion; used by tests to
    probe the conflict rule. Flushes the finger first so the verdict is
    computed against exactly the accesses the slow path would hold. *)

(** {1 Insert fast path: the finger cache}

    A run of adjacent same-kind/same-debug-info accesses (the Code 2 /
    Figure 8b loop) is coalesced in O(1) into the {e finger}: a single
    pending run held outside the AVL tree, exactly the node the slow
    path would hold. The finger carries a certified tree-byte-free clear
    zone, so extending it needs no tree descent. It never survives an
    epoch boundary ({!note_epoch}) or a race check ({!check_only}), and
    an insert whose one-byte-widened window reaches the zone flushes it
    before the slow path runs. When the slow path ends with a single
    merged node and no tree byte lies inside it, that node becomes the
    finger, so a run cut by an access elsewhere returns to the O(1)
    path. Detection semantics are byte-for-byte unchanged. DESIGN.md §9
    has the argument. *)

val flush_finger : t -> unit
(** Moves the finger run, if any, into the tree. Called automatically at
    epoch boundaries and before any race check; exposed for callers that
    need the tree itself up to date (the analyzer's epoch close, tests
    comparing final states). *)

val finger_hits : t -> int
(** O(1) extensions of the finger run; also exported as the Obs counter
    [store.disjoint.finger_hits]. *)

val self_check : t -> bool
(** Validates the fast-path invariants (the finger inside its clear zone,
    no tree byte inside the open zone) plus the tree invariants; for
    tests. *)

(** {1 Flight recorder}

    When {!Flight_recorder.is_enabled} held at {!create} time, the store
    keeps a bounded ring of the original (pre-fragmentation) accesses it
    absorbed, so race reports can name every source access that
    contributed bytes to a node even after the Table 1 dominance rule or
    merging discarded its debug info. All three entry points are no-ops
    on a store created while recording was disabled. *)

val recorder : t -> Flight_recorder.t option
(** The store's ring, for report builders; [None] when recording was
    disabled at creation. {!Store_intf.S.note_epoch} advances its epoch
    stamp. *)
