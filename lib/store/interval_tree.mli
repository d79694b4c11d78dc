open Rma_access

(** Generic balanced interval tree.

    The functor builds an AVL multiset over any element carrying a byte
    interval: ordered by interval lower bound (then upper bound, then
    the element's tiebreak), augmented with the subtree's maximum upper
    bound so [stab] answers overlap queries exactly in
    O(log n + answers). {!Avl} instantiates it for plain accesses, the
    strided store for access regions. *)

module type ELEMENT = sig
  type t

  val interval : t -> Interval.t
  (** The byte range the element covers (its hull, for compound
      elements). *)

  val tiebreak : t -> int
  (** Distinguishes elements with equal intervals (e.g. a sequence
      number); the multiset key is (lo, hi, tiebreak). *)

  val equal : t -> t -> bool
  (** Full structural equality, used by [remove]. *)

  val pp : Format.formatter -> t -> unit
end

module Make (Elt : ELEMENT) : sig
  type t

  val create : unit -> t
  val size : t -> int
  val height : t -> int
  val is_empty : t -> bool

  val insert : t -> Elt.t -> unit
  (** Multiset insert; never rejects. *)

  val remove : t -> Elt.t -> bool
  (** Removes one structurally-equal occurrence; [false] when absent. *)

  val splice : t -> Interval.t -> old:Elt.t list -> Elt.t list -> unit
  (** [splice t window ~old pieces] replaces [old], the run {!stab}
      returns for [window] in a disjoint tree, with sorted [pieces]
      disjoint from each other and the rest: surplus nodes go, one walk
      overwrites the others (a node already holding its piece is left
      alone), surplus pieces are inserted. Raises [Invalid_argument] when
      the window's run is not [old]. *)

  val stab : t -> Interval.t -> Elt.t list
  (** Every stored element whose interval overlaps the query, in
      increasing lower-bound order; exact thanks to the max-upper-bound
      augmentation. *)

  type clearance =
    | Blocked
        (** Some stored byte lies inside the query window (or the
            single-descent answer could not be certified). *)
    | Clear of { pred_hi : int; succ_lo : int }
        (** No stored byte inside the query window: every stored
            byte left of it is [<= pred_hi] and every stored byte right
            of it is [>= succ_lo] ([min_int]/[max_int] when that side is
            empty). *)

  val clearance : t -> Interval.t -> clearance
  (** Single-descent gap query on exactly the given window; callers
      that care about adjacency widen it themselves. Conservative
      ([Blocked]) whenever certifying the gap would need a second path.
      Used by the disjoint store's finger cache. *)

  val ops : t -> int
  (** Cumulative count of tree operations (descents): [insert], [remove],
      [stab], [search_path], [clearance] and a [splice] walk count one.
      The currency of the fast-path benchmarks. *)

  val search_path : t -> Elt.t -> Elt.t list
  (** The elements on the plain BST descent from the root towards the
      query's insertion slot, in descent order — the only part of the
      tree legacy RMA-Analyzer inspects (the Figure 5a approximation). *)

  val to_list : t -> Elt.t list
  val iter : t -> (Elt.t -> unit) -> unit
  val fold : t -> init:'a -> f:('a -> Elt.t -> 'a) -> 'a
  val clear : t -> unit

  val invariants_ok : t -> bool
  (** BST order, AVL balance and max-hi cache; for tests. *)

  val pp : Format.formatter -> t -> unit
end
