open Rma_access

(** MPI-flavoured interface for rank programs.

    Every function here may only be called from inside a program passed
    to {!Runtime.run}; each call performs the runtime's effect and is
    serviced by the scheduler. Names and shapes follow the MPI calls
    they stand in for ([comm_rank], [win_lock_all], [put], ...).

    Functions touching memory take a [?loc] debug location; pass
    [loc ~file ~line "MPI_Put"]-style values so detector reports point
    at your source, exactly like the compiler instrumentation does for
    the real tool. *)

type win = Event.win_id

val loc : file:string -> line:int -> string -> Debug_info.t
(** Convenience constructor for debug locations. *)

val comm_rank : unit -> int
val comm_size : unit -> int

val compute : float -> unit
(** Advance the simulated clock by [seconds] of application work. *)

val alloc : ?label:string -> ?storage:Memory.storage -> ?exposed:bool -> int -> int
(** Reserve memory in the calling rank's address space; returns the base
    address. [~exposed:true] marks the allocation as possibly-RMA (what
    the static alias analysis would report); [~storage:Stack] makes it
    invisible to the TSan-style backend. *)

val load : ?loc:Debug_info.t -> addr:int -> len:int -> unit -> Bytes.t
(** Instrumented local read. *)

val store : ?loc:Debug_info.t -> addr:int -> Bytes.t -> unit
(** Instrumented local write. *)

val load_i64 : ?loc:Debug_info.t -> addr:int -> unit -> int64
val store_i64 : ?loc:Debug_info.t -> addr:int -> int64 -> unit
(** 8-byte convenience accessors over [load]/[store]. *)

val win_create : base:int -> size:int -> win
(** Collective. Every rank contributes a [size]-byte region of its own
    memory starting at [base]; sizes must agree. *)

val win_free : win -> unit
(** Collective; epochs must be closed. *)

val win_lock_all : ?loc:Debug_info.t -> win -> unit
(** Open a passive-target epoch on every rank's window region. *)

val win_unlock_all : ?loc:Debug_info.t -> win -> unit
(** Close the epoch: completes (and applies) all of the calling rank's
    outstanding one-sided operations on this window. *)

val win_flush_all : ?loc:Debug_info.t -> win -> unit
(** Complete the calling rank's outstanding operations without closing
    the epoch. Per §6 of the paper this orders only the {e caller}'s
    operations — detectors must not treat it as a global
    synchronisation. *)

val win_flush : ?loc:Debug_info.t -> win -> rank:int -> unit
(** Complete the calling rank's outstanding operations towards one
    target. *)

val win_lock : ?loc:Debug_info.t -> ?exclusive:bool -> win -> rank:int -> unit
(** Per-target passive lock (MPI_Win_lock). [~exclusive:true] is
    MPI_LOCK_EXCLUSIVE (default shared): the call blocks while an
    incompatible lock on that target is held by another origin. Opens a
    per-target access epoch at the caller on first lock. *)

val win_unlock : ?loc:Debug_info.t -> win -> rank:int -> unit
(** Completes the caller's operations towards [rank], releases the lock
    and closes the per-target epoch when no other lock of this caller
    remains on the window. *)

val win_fence : ?loc:Debug_info.t -> win -> unit
(** Active-target synchronisation: collective over all ranks, completes
    every outstanding one-sided operation on the window and separates
    epochs (detectors see an epoch close + open on every rank). The
    first fence opens the first epoch; a trailing empty fence epoch is
    closed implicitly by [win_free]. *)

val put :
  ?loc:Debug_info.t -> win -> target:int -> target_disp:int -> origin_addr:int -> len:int -> unit
(** One-sided write of [len] bytes from the origin buffer into the
    target's window. Completion is deferred: the data lands at an
    unspecified point before the next flush/unlock. *)

val get :
  ?loc:Debug_info.t -> win -> target:int -> target_disp:int -> origin_addr:int -> len:int -> unit
(** One-sided read from the target's window into the origin buffer. *)

val accumulate :
  ?loc:Debug_info.t ->
  win ->
  target:int ->
  target_disp:int ->
  origin_addr:int ->
  len:int ->
  op:Runtime.reduce_op ->
  unit
(** One-sided element-atomic reduction of 8-byte integer elements into
    the target window (MPI_Accumulate with the same-op assumption).
    Unlike Put, concurrent accumulates to the same location do not race
    (the §2.1 atomicity property) — and the detectors know it. *)

val send : dst:int -> tag:int -> Bytes.t -> unit
(** Two-sided eager send. *)

val recv : ?src:int -> ?tag:int -> unit -> Runtime.message
(** Blocking receive; [?src]/[?tag] [None] act as wildcards. *)

val barrier : unit -> unit
(** Synchronises all ranks. Per the MPI standard (and §6 of the paper)
    it does NOT complete outstanding one-sided operations. *)

val allreduce_int : int -> op:Runtime.reduce_op -> int
val allreduce_float : float -> op:Runtime.reduce_op -> float
(** Float allreduce via bit-carrying of binary64 (exact for Max/Min on
    non-negative values; Sum combines with float addition). *)

(** {1 Intra-rank threads (hybrid MPI+threads)}

    A rank program may spawn cooperative threads that share the rank's
    address space, windows and MPI state (MPI_THREAD_MULTIPLE-style;
    collectives may still be entered by only one thread of a rank at a
    time). Thread clocks advance only at the synchronisation points
    below; accesses carry their issuing thread's identity so the
    detectors can distinguish program-ordered from merely same-rank
    access pairs. *)

val thread_spawn : (unit -> unit) -> int
(** Start a new thread of the calling rank running [body]; returns its
    thread id. The spawn is a synchronisation edge: the child observes
    everything the parent did before the call (but not vice versa). *)

val thread_join : int -> unit
(** Block until the thread with the given id finishes; a synchronisation
    edge from the child's last action to the caller's next. *)

val signal : int -> unit
(** Post one count on the given intra-rank signal slot (a counting
    semaphore), releasing one waiter if any is blocked. The released (or
    future) waiter observes everything every signaller did before
    signalling. *)

val wait : int -> unit
(** Consume one count from the signal slot, blocking until one is
    available. *)
