(** The four memory-access kinds of the paper (§2.1).

    An access is local to the process ([Local_*]) or part of a one-sided
    communication ([Rma_*]), and reads or writes. The RMA duality: an
    [MPI_Put] is an [Rma_read] of the origin's buffer and an [Rma_write]
    into the target's window; an [MPI_Get] is an [Rma_read] of the
    target's window and an [Rma_write] into the origin's buffer. *)

type t = Local_read | Local_write | Rma_read | Rma_write | Rma_accumulate

val is_rma : t -> bool
val is_local : t -> bool
val is_write : t -> bool

val is_accumulate : t -> bool

val strength : t -> int
(** Dominance ranking for the Table 1 combination rule:
    [Rma_accumulate (4) > Rma_write (3) > Rma_read (2) > Local_write (1)
    > Local_read (0)]. RMA accesses prevail over local accesses and
    writes over reads; accumulates (an extension beyond the paper's four
    kinds, following its §2.1 atomicity property) sit on top. *)

val all : t list

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string
