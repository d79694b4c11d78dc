(** Closed byte-address intervals.

    The paper stores each memory access as the exact interval of
    addresses it touches, written [[lo...hi]] with both bounds included
    (Figure 5 notes a node as [([2...12], RMA_Read)]). All arithmetic
    here follows that closed-interval convention: a single byte at
    address [a] is [[a...a]], and two intervals are adjacent when one
    ends exactly one byte before the other starts. *)

type t = private { lo : int; hi : int }
(** Invariant: [lo <= hi]. *)

val make : lo:int -> hi:int -> t
(** Raises [Invalid_argument] if [lo > hi]. *)

val of_range : addr:int -> len:int -> t
(** [[addr ... addr+len-1]]. Raises [Invalid_argument] if [len <= 0]. *)

val byte : int -> t
(** Single-byte interval. *)

val lo : t -> int
val hi : t -> int

val length : t -> int
(** Number of bytes covered. *)

val contains : t -> int -> bool

val overlaps : t -> t -> bool
(** True when the intervals share at least one byte. *)

val adjacent : t -> t -> bool
(** True when they touch without overlapping ([a.hi + 1 = b.lo] or the
    converse). *)

val intersection : t -> t -> t option
(** Shared bytes, when any. *)

val left_remainder : outer:t -> cut:t -> t option
(** Bytes of [outer] strictly before [cut]; [None] when empty. *)

val right_remainder : outer:t -> cut:t -> t option
(** Bytes of [outer] strictly after [cut]; [None] when empty. *)

val hull : t -> t -> t
(** Smallest interval covering both. *)

val compare_lo : t -> t -> int
(** Order by lower bound, then by upper bound — the BST key order. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Paper notation: [[2...12]], or [[4]] for single bytes. *)

val to_string : t -> string
