(** A memory budget for an access store, with the policy applied when
    the store grows past it. Enforcement lives in the stores (via
    {!Governor}); this module only names the contract. See
    DESIGN.md §11 for the exact degradation semantics. *)

(** What a store does on the insert that finds it over budget:
    - [Fail_fast] — raise {!Exhausted}; the analysis stops cleanly.
    - [Spill_oldest_epoch] — evict recorded accesses oldest-first,
      preferring accesses from already-completed epochs; every evicted
      node counts in the store's [degraded_drops] statistic
      ({!Store_intf.stats}). May miss races whose older
      side was evicted — the non-zero drop count is the explicit
      record of that risk.
    - [Coarsen] — merge adjacent same-kind, same-issuer accesses
      {e ignoring debug-info inequality}, trading report provenance
      for memory; coarsened merges also count in [degraded_drops],
      and reports from a coarsened store carry downgraded confidence
      in SARIF output. Falls back to spilling when coarsening alone
      cannot fit the budget. *)
type policy = Fail_fast | Spill_oldest_epoch | Coarsen

type t = {
  max_nodes : int option;  (** Cap on store nodes; [None] = unbounded. *)
  max_bytes : int option;
      (** Cap on {e approximate} store memory; each store converts
          this to a node cap via its per-node byte estimate. *)
  policy : policy;
}

exception Exhausted of string
(** Raised by a [Fail_fast] store on the insert exceeding the budget. *)

val unbounded : t
(** No caps ([Fail_fast] policy, vacuously). *)

val is_unbounded : t -> bool

val policy_name : policy -> string
(** ["fail_fast"], ["spill_oldest_epoch"], ["coarsen"]. *)

val of_spec : string -> (t, string) result
(** Parse ["nodes=4096,policy=spill"] / ["bytes=1048576,policy=coarsen"]
    style specs, or the shorthand ["4096:spill"] (node cap + policy).
    Policies accept short aliases [fail], [spill], [coarsen]. Caps
    must be positive. *)

val to_spec : t -> string

val pp : Format.formatter -> t -> unit
