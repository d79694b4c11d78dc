(** The scheduler's run queue, a growable ring whose vacated slots hold
    [dummy]. [take q idx] removes and returns element [idx] (0 is the
    oldest), leaving [q[idx+1 .. n-1] @ rev q[0 .. idx-1]]: the order
    every recorded schedule depends on (DESIGN.md §19). *)

type 'a t

val create : dummy:'a -> 'a t
val length : 'a t -> int
val add : 'a t -> 'a -> unit
val take : 'a t -> int -> 'a
