(** The RMA-Analyzer family of detectors.

    One constructor covers the published legacy tool, the paper's
    contribution, and the two ablations in between, differing only in
    the store policy:

    - [Legacy] — non-disjoint multiset store, conflict check along the
      lower-bound search path only, order-insensitive rule. Reproduces
      the published tool with its Figure 5a false negatives and Table 3
      false positives.
    - [Contribution] — Algorithm 1: exact overlap check, fragmentation,
      merging, order-aware rule.
    - [Fragmentation_only] — contribution without merging (§4.1 alone);
      shows the node explosion merging exists to fix.
    - [Order_blind] — contribution with the legacy conflict rule;
      isolates the order-awareness fix.

    Protocol costs mirror §5.1: every remote access charges the
    notification send, every epoch close charges the MPI_Reduce. *)

type policy =
  | Legacy
  | Contribution
  | Fragmentation_only
  | Order_blind

val create :
  nprocs:int ->
  ?config:Mpi_sim.Config.t ->
  ?mode:Tool.mode ->
  ?flush_clears:bool ->
  ?budget:Rma_store.Budget.t ->
  ?predictive:bool ->
  policy ->
  Tool.t
(** Defaults: [config = Mpi_sim.Config.default], [mode = Abort_on_race],
    [flush_clears = false], no [budget],
    [predictive = false]. The CLI's [--budget] and [--predictive] (and
    their environment twins) reach here only as these arguments
    (DESIGN.md §20).

    A bounded [budget] applies to every (rank, window) store the
    analyzer creates; when governance drops or coarsens nodes, the sum
    appears in {!Tool.bst_summary.degraded_drops_total} and races
    detected on a degraded store carry
    [provenance.degraded = true] (downgraded confidence in SARIF).
    Under [Fail_fast] the racing insert raises
    {!Rma_store.Budget.Exhausted} through the observer. See DESIGN.md
    §11.

    {!Tool.max_reports} bounds the reports kept for {!Tool.t.races};
    counting ({!Tool.t.race_count}) is never truncated, and
    {!Tool.dropped_races} exposes how many reports were not stored.

    [flush_clears:true] is the negative ablation of §6(2), kept because
    it is the only reproduction of that claim: it treats
    [MPI_Win_flush]/[flush_all] as if they synchronised the epoch and
    clears the caller's trees — which is wrong, because a flush only
    orders the {e caller}'s operations; the paper shows this produces
    false negatives for conflicts with other origins, which is why the
    real tool leaves flush uninstrumented.

    [predictive:true] runs the weak-order
    analysis of DESIGN.md §15 alongside the observed one: a second set of
    (rank, window) trees cleared only at true synchronization edges
    (fence completion; barriers/allreduces with no unflushed one-sided
    traffic on the window) instead of the schedule-dependent
    all-ranks-closed point. Cross-rank conflicts surviving there but not
    observed are appended to {!Tool.t.races} as {e predicted}
    (schedulable) races — [provenance.predicted = true] plus a
    [provenance.witness] describing the reordering that realizes them,
    ids numbered after the observed reports, counted by
    {!Tool.t.race_count}, never aborting even under [Abort_on_race].
    With [predictive:false] every observable output is byte-identical to
    a build without the feature. *)
