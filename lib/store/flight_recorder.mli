open Rma_access

(** Bounded interval-history ring buffer behind a disjoint store — the
    race-provenance "flight recorder".

    Fragmentation and merging deliberately forget: the Table 1 dominance
    rule keeps only the winning access's debug info inside an
    intersection fragment, and merging collapses runs of mergeable
    fragments into one node. A race against such a node can therefore
    only name the {e surviving} source location, even though several
    distinct source accesses contributed bytes to it. The recorder keeps
    the pre-fragmentation originals — each successful insert is appended
    as recorded by the instrumentation, stamped with the store's current
    epoch — so a report can reconstruct every contributing source access
    for any byte range, after arbitrarily many fragment/merge rounds.

    Recording is opt-in and process-global, same pattern as [Rma_obs.Obs]:
    nothing allocates and nothing records until {!enable} runs, and a
    store created while recording is disabled carries no recorder at all
    (the per-insert cost of the feature being off is one [option]
    match). The buffer is a ring of 512 origins per (rank, window)
    store: when full, the oldest origin is evicted, keeping the newest
    history — bounded memory on unbounded runs, at the cost of
    provenance for very old accesses.

    The ring is cleared whenever its store is cleared (window clear at
    end of epoch): races can only fire against live nodes, so history
    for discarded trees is dead weight. *)

type origin = {
  access : Access.t;  (** As presented to the store, before fragmentation. *)
  epoch : int;  (** Store epoch when the access was recorded. *)
}

type t

val enable : unit -> unit
(** Turn recording on for stores created {e afterwards}. *)

val disable : unit -> unit

val is_enabled : unit -> bool

val create : unit -> t option
(** A fresh ring when recording is enabled, [None] otherwise — stores
    keep the result and guard each call site on the option. *)

val record : t -> Access.t -> unit
(** Append one origin at the current epoch, evicting the oldest entry
    when the ring is full. *)

val note_epoch : t -> unit
(** Bump the epoch stamp for subsequent {!record}s. Called by the
    analyzer on [Epoch_opened]. *)

val current_epoch : t -> int

val clear : t -> unit
(** Drop all history (the backing store was cleared). The epoch counter
    is kept: epoch ids stay unique across the window's lifetime. *)

val history : t -> Interval.t -> origin list
(** Every retained origin whose interval overlaps the query, oldest
    first — the contributing source accesses for a node covering the
    queried byte range. *)
