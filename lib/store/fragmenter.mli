open Rma_access

(** The pure core of Algorithm 1's steps 3 and 4, shared by
    {!Disjoint_store}. *)

val fragment : candidates:Access.t list -> new_acc:Access.t -> Access.t list * int
(** [fragment ~candidates ~new_acc] splits the union of [new_acc] and
    the candidates into disjoint pieces (§4.1): candidate bytes outside
    the new interval keep the candidate identity, intersections take the
    Table 1 dominant kind (recency breaking ties), uncovered new-access
    bytes keep the new identity, and merely-adjacent candidates pass
    through whole. [candidates] must be pairwise disjoint and sorted by
    lower bound (the store invariant). Returns the pieces sorted by
    lower bound and the number of genuine fragments created. *)

val merge : Access.t list -> Access.t list * int
(** [merge pieces] coalesces adjacent pieces with equal access kind,
    debug info and issuer (§4.2). [pieces] must be sorted and disjoint.
    Returns the merged list and the number of coalesced pairs. *)
