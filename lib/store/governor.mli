open Rma_access

(** Budget enforcement shared by the access stores.

    A governor turns a {!Budget.t} into an effective node
    cap (translating [max_bytes] through the store's per-node byte
    estimate) and tracks the two pieces of state every degradation
    policy needs: the epoch watermark separating completed-epoch
    accesses from current-epoch ones, and the running count of nodes
    the store dropped or coarsened away ([degraded_drops] in
    {!Store_intf.stats}). The eviction/merge loops themselves live in
    each store because they manipulate store-private trees; this module
    decides {e what} to evict. Semantics are specified in DESIGN.md
    §11. *)

type t

val create : ?budget:Budget.t -> bytes_per_node:int -> unit -> t option
(** [None] when the budget is missing or unbounded — an
    ungoverned store pays one option match per insert. [bytes_per_node]
    is the store's documented per-node memory estimate used to convert
    [max_bytes] into a node cap; the effective cap is the tighter of
    the node and byte caps, never below 1. *)

val budget : t -> Budget.t

val cap : t -> int
(** Effective node cap. *)

val over : t -> size:int -> bool
(** Is the store, at [size] nodes, over its cap? *)

val observe_seq : t option -> int -> unit
(** Track the highest access sequence number the store absorbed; the
    epoch watermark is taken from it at {!note_epoch}. *)

val note_epoch : t option -> unit
(** Epoch boundary: every access observed so far becomes
    completed-epoch (spill victims of first resort). *)

val spill_victims : t -> size:int -> seq_of:('a -> int) -> 'a list -> 'a list
(** [spill_victims g ~size ~seq_of nodes] chooses which of [nodes] the
    store must evict to get from [size] back to the cap: oldest
    sequence numbers first, all completed-epoch accesses before any
    current-epoch one. Returns the empty list when not over. *)

val coarsen_accesses : Access.t list -> Access.t list * int
(** Merge runs of overlapping-or-adjacent accesses with equal kind and
    issuer {e ignoring debug-info inequality} — the §4.2 merge
    precondition minus provenance. The input must be sorted by
    increasing lower bound (as {!Store_intf.S.to_list} returns it);
    each merged run keeps the most recent member's kind, issuer,
    sequence number and debug info over the hull of the run. Returns
    the coarsened list and the number of nodes merged away. *)

val record_drops : t -> int -> unit
(** Count [n] dropped/coarsened nodes (also on the Obs counter
    [store.degraded_drops]). *)

val drops : t option -> int
(** Total [degraded_drops] so far; 0 for an ungoverned store. *)

val degraded : t option -> bool
(** Has governance ever dropped or coarsened a node? Reports detected
    on a degraded store carry downgraded confidence in SARIF. *)

val exhausted : store:string -> size:int -> t -> 'a
(** Raise {!Budget.Exhausted} naming the store kind, its size
    and its cap — the [Fail_fast] policy. *)
