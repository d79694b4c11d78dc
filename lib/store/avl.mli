open Rma_access
(** Balanced binary search tree of accesses, ordered by interval lower
    bound (then upper bound, then sequence number, so the tree behaves
    as a multiset: several accesses with equal lower bounds coexist, as
    in the C++ [std::multiset] the original RMA-Analyzer uses).

    Each node is augmented with the maximum interval upper bound of its
    subtree, turning the tree into an interval tree: [stab] retrieves
    every stored access overlapping a query interval in
    O(log n + answers) regardless of how intervals nest.

    The tree also exposes [search_path] — the plain BST descent towards
    a query's insertion point comparing lower bounds only. Legacy
    RMA-Analyzer checks for conflicts along exactly that path, which is
    how it misses overlaps sitting off-path (the Figure 5a false
    negative); the legacy store needs the primitive preserved
    faithfully. *)

type t

val create : unit -> t

val size : t -> int

val is_empty : t -> bool

val insert : t -> Access.t -> unit
(** Multiset insert; never rejects. *)

val remove : t -> Access.t -> bool
(** Removes one occurrence structurally equal to the argument; [false]
    when absent. *)

val splice : t -> Interval.t -> old:Access.t list -> Access.t list -> unit
(** Algorithm 1's line 8 in place: [splice t window ~old pieces]
    replaces [old], the run {!stab} returns for [window] in a disjoint
    tree, with sorted [pieces] disjoint from each other and the rest:
    surplus nodes go, one walk overwrites the others (a node already
    holding its piece is left alone), surplus pieces are inserted.
    Raises [Invalid_argument] when the window's run is not [old]. *)

val stab : t -> Interval.t -> Access.t list
(** Every stored access whose interval overlaps the query, in increasing
    lower-bound order. Uses the max-upper-bound augmentation, so it is
    exact. *)

type clearance =
  | Blocked
      (** Some stored byte lies inside the query window (or the
          single-descent answer could not be certified). *)
  | Clear of { pred_hi : int; succ_lo : int }
      (** No stored byte inside the query window: every stored byte
          left of it is [<= pred_hi] and every stored byte right of it
          is [>= succ_lo] ([min_int]/[max_int] when that side is
          empty). *)

val clearance : t -> Interval.t -> clearance
(** Single-descent gap query on exactly the given window; callers that
    care about adjacency widen it themselves. Conservative ([Blocked])
    whenever certifying the gap would need a second path. Used by the
    disjoint store's finger cache. *)

val ops : t -> int
(** Cumulative count of tree operations (descents): [insert], [remove],
    [stab], [search_path], [clearance] and a [splice] walk count one.
    The currency of the fast-path benchmarks. *)

val search_path : t -> Access.t -> Access.t list
(** The accesses on the BST descent from the root towards [query]'s
    insertion slot (inclusive of every node compared against), in
    descent order. This is the only part of the tree legacy
    RMA-Analyzer inspects when checking a new access for conflicts. *)

val to_list : t -> Access.t list
(** In-order (increasing lower bound). *)

val iter : t -> (Access.t -> unit) -> unit

val fold : t -> init:'a -> f:('a -> Access.t -> 'a) -> 'a

val clear : t -> unit

val invariants_ok : t -> bool
(** Checks BST order, AVL balance and the max-hi augmentation; for
    tests. *)

val pp : Format.formatter -> t -> unit
(** Indented tree rendering for debugging and the Figure 5 bench. *)
