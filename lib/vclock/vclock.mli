(** Sparse vector clocks for the MUST-RMA-style happens-before baseline.

    Clock components are identified by integer thread ids. Real MPI
    ranks use ids [0 .. nprocs-1]; every one-sided operation (or epoch)
    gets a fresh {e virtual} thread id above that range, mirroring how
    MUST-RMA models the asynchronous window between an RMA call and its
    completing synchronisation as a concurrent region. Sparse storage
    keeps unbounded virtual ids affordable while still costing O(live
    components) per merge — the growth with process count that the paper
    blames for MUST-RMA's scaling behaviour (§5.3). *)

type t

val empty : t

val create : nprocs:int -> t
(** Components [0 .. nprocs-1] at 0. *)

val get : t -> int -> int
(** Missing components read as 0. *)

val tick : t -> int -> t
(** Increment one component. *)

val set : t -> int -> int -> t

val merge : t -> t -> t
(** Componentwise max — the receive/join operation. *)

val happens_before : t -> t -> bool
(** Componentwise [<=], and not equal. *)

val threads_per_rank : int
(** Upper bound on intra-rank thread ids accepted by {!rt_key}. *)

val rt_key : rank:int -> thread:int -> int
(** Component id for intra-rank thread [thread] of [rank]. Thread 0 maps
    to the plain rank id (so a single-threaded clock is exactly the
    rank-indexed clock used everywhere else); spawned threads map to
    negative keys disjoint from both rank ids and the virtual ids
    MUST-RMA allocates above [nprocs]. Raises [Invalid_argument] outside
    [0, threads_per_rank). *)

type stamp = { thread : int; epoch : int }
(** Identity of a single event: the thread it ran on and that thread's
    clock value when it ran. *)

val stamp_of : t -> thread:int -> stamp
(** Stamp an event happening now on [thread] under clock [t]. *)

val stamp_observed : stamp -> by:t -> bool
(** [stamp_observed s ~by] — does clock [by] already know about the
    event, i.e. did the event happen-before the point where [by] was
    taken? This is the O(1) TSan-style HB test. *)

val components : t -> (int * int) list
(** Non-zero [(thread, value)] components in increasing thread order —
    the serializable snapshot race provenance carries. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val to_string : t -> string
(** [{ 0:2, 1:1 }] rendering of {!components}; [{}] when empty. *)

(** Dual observed/weak clocks for the predictive analyzer: the observed
    clock advances on every scheduler-visible progress point of its
    rank, the weak clock only on edges MPI synchronization semantics
    guarantee under {e every} legal schedule (fences; barriers whose
    outstanding one-sided traffic was flushed). Accesses separated in
    the observed order but concurrent in the weak order are the
    "schedulable race" class a different interleaving could overlap. *)
module Dual : sig
  type clock = t

  type t

  val create : unit -> t

  val observed : t -> clock

  val weak : t -> clock

  val reset : t -> unit

  val local_step : t -> rank:int -> unit
  (** Scheduler-induced progress (an epoch close the one observed run
      happened to take): ticks the observed clock only. *)

  val sync_step : t array -> unit
  (** A real synchronization edge joining every rank (fence release,
      fully flushed barrier): both clocks of every rank merge
      componentwise and tick their own component, barrier-style. *)
end
