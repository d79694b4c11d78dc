(** A recorded memory access: the unit stored in the per-window BST.

    Carries the exact interval of addresses touched, the access kind,
    the rank that issued the operation (an [MPI_Put] from rank 2 into
    rank 0's window is recorded in rank 0's tree with [issuer = 2]), a
    monotone sequence number that orders the accesses as the analyzer
    observed them, debug information for reports and merging, and the
    identity of the issuing {e intra-rank thread} for hybrid
    MPI+threads programs. *)

type thread_info = {
  tid : int;  (** Intra-rank thread id; 0 is the rank's main thread. *)
  tstamp : int;  (** The issuing thread's own clock component at issue. *)
  tview : (int * int) list;
      (** Snapshot of the issuing thread's intra-rank vector clock
          ({!Rma_vclock.Vclock.components} over {!Rma_vclock.Vclock.rt_key}
          component ids), refreshed only at spawn/join/signal/wait. *)
}

type t = {
  interval : Interval.t;
  kind : Access_kind.t;
  issuer : int;  (** Rank whose operation produced the access. *)
  seq : int;  (** Observation order within the analyzer; higher = later. *)
  debug : Debug_info.t;
  thread : thread_info;  (** Issuing thread within [issuer]. *)
}

val default_thread : issuer:int -> thread_info
(** The thread identity of any access issued by a rank that never
    spawned a thread: tid 0 under the virgin clock a main thread is
    born with. Serializers omit exactly this value, keeping
    single-thread traces byte-identical to the thread-oblivious
    schema. *)

val is_default_thread : t -> bool
(** Does the access carry {!default_thread} for its issuer? *)

val make :
  interval:Interval.t -> kind:Access_kind.t -> issuer:int -> seq:int -> debug:Debug_info.t -> t
(** Carries {!default_thread}[ ~issuer]. *)

val make_threaded :
  thread:thread_info ->
  interval:Interval.t ->
  kind:Access_kind.t ->
  issuer:int ->
  seq:int ->
  debug:Debug_info.t ->
  t
(** [make] with an explicit issuing-thread identity. *)

val with_interval : t -> Interval.t -> t
(** Same access restricted (or extended) to another interval — used by
    fragmentation to carve an access into sub-intervals. *)

val same_issuer : t -> t -> bool

val thread_ordered : prior:t -> later:t -> bool
(** Did [prior] happen-before [later] in its process's program order:
    same issuer and either the same thread, or [later]'s thread had
    observed [prior]'s clock position through a spawn/join/signal/wait
    synchronisation edge. Single-thread accesses of one rank are always
    ordered (the degenerate case). *)

val mergeable : t -> t -> bool
(** The §4.2 merging precondition minus adjacency: equal access kind and
    equal debug information (and same issuer, which equal debug info
    implies for distinct processes only by convention — we require it
    explicitly), plus equal thread identity so coalescing cannot erase
    the evidence the hybrid order test needs. *)

val most_recent : t -> t -> t
(** The access with the larger sequence number. *)

val dominate : older:t -> newer:t -> Interval.t -> t
(** Table 1 combination for an intersection fragment: the resulting kind
    is the stronger of the two; the debug info (and issuer/seq/thread)
    follow the access whose kind wins, with ties keeping the most
    recent. *)

val pp : Format.formatter -> t -> unit
(** Prints the thread id only when it is nonzero, so single-thread
    renderings (reports, explain output) are unchanged. *)

val to_string : t -> string

val equal : t -> t -> bool
(** Full structural equality (including [seq] and the thread info). *)
