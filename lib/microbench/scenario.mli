(** The 154-code microbenchmark suite of §5.2.

    The paper describes the suite as "every combination of two one-sided
    operations by varying the order of the operations, the callers of
    the operations, and the location that will be accessed twice" — 154
    codes, 47 with a data race and 107 safe. We regenerate it as:

    - {b 56 base combinations}: the first operation is issued by the
      origin process (rank 0, as in Figure 3); the second by the same
      process, the target (rank 1) or a second origin (rank 2); both
      touch the same 8-byte location, which lives in or out of a window,
      at origin or target side. 36 are racy, 20 safe.
    - {b 56 disjoint twins}: the same combinations with the second
      operation moved to a non-overlapping location — always safe.
    - {b 11 heap variants of racy codes} and {b 31 heap variants of safe
      codes}: the suite's C codes declare window memory as stack arrays
      (which ThreadSanitizer cannot instrument) and the paper notes that
      "when using heap arrays, the error is detected by MUST-RMA"; these
      variants re-run a combination with the shared location on the
      heap. Heap variants of the six order-sensitivity codes are
      excluded so the legacy false-positive count stays faithful.

    Totals: 154 codes, 47 racy, 107 safe — the paper's Table 3 corpus.
    Three out-of-window racy codes additionally declare their shared
    buffer on the stack (C automatic arrays), bringing the
    ThreadSanitizer-invisible races to the paper's 15. *)

type op = Get | Put | Load | Store

type actor = Origin1 | Target | Origin2

type place = Origin_in | Origin_out | Target_in | Target_out
(** Where the shared location lives: in/out of the window, at rank 0
    (origin) or rank 1 (target). *)

(** How an operation touches the shared location. *)
type role =
  | As_local  (** A Load/Store on it. *)
  | As_origin_buffer  (** It is the RMA call's local buffer. *)
  | As_remote_target  (** It is the RMA call's remote window location. *)

type variant =
  | Overlapping  (** Both operations touch the same location. *)
  | Disjoint  (** The second operation touches a different location. *)

type t = {
  name : string;  (** Paper-style, e.g. [ll_get_load_outwindow_origin_race]. *)
  first : op * actor;
  second : op * actor;
  place : place;
  first_role : role;
  second_role : role;
  variant : variant;
  stack_shared : bool;  (** The shared location sits in stack storage. *)
  racy : bool;  (** Ground truth. *)
}

val actor_rank : actor -> int

val place_owner_rank : place -> int
(** 0 for origin-side places, 1 for target-side ones. *)

val kind_of : op -> role -> Rma_access.Access_kind.t
(** The access kind the operation performs {e on the shared location}
    (§2.1 duality: a Put reads its origin buffer and writes the remote
    window; a Get does the converse). *)

val all : t list
(** The full 154-code suite, deterministically ordered by name. *)

val count_total : int
val count_racy : int
val count_safe : int

val expected_legacy_false_positives : t list
(** The six safe codes the order-insensitive legacy rule flags. *)

val find : string -> t option

(** {1 RMARaceBench-shaped kernels}

    A small labeled corpus in the style of Jammer et al.'s RMARaceBench:
    complete three-rank MPI programs (not access-pair combinations like
    the 154-code suite above) covering remote/local conflicts, race and
    no-race variants, and lock/fence/flush synchronisation. Ground-truth
    labels let tests assert that a detector reproduces every verdict. *)
module Kernel : sig
  type sync = Fence | Lock_all | Flush_only

  type locality =
    | Remote  (** The conflicting location is in the target's window. *)
    | Local_buffer  (** The conflicting location is an origin buffer. *)

  type t = {
    k_name : string;  (** e.g. [rrb_lockall_remote_conflict_put_put_race]. *)
    k_sync : sync;
    k_locality : locality;
    k_nprocs : int;
    k_racy : bool;  (** Ground truth. *)
    k_program : unit -> unit;  (** The rank program (runs on every rank). *)
  }

  val all : t list
  (** The full corpus; every kernel wants [k_nprocs] ranks. *)

  val hybrid : t list
  (** Hybrid MPI+threads kernels ([hyb_] prefix): every one spawns at
      least one intra-rank thread and carries a ground-truth label that
      holds under {e any} legal interleaving — spawned threads are
      joined (or signal/wait-ordered) before the epoch they access
      closes, so no schedule can move an access across the
      synchronisation that labels it. *)

  val predictive : t list
  (** Schedulable-race kernels ([prd_] prefix) for predictive mode:
      conflicting accesses in {e consecutive} passive-target epochs of
      one window, where the observed verdict depends on the interleave
      seed (unlock_all is not collective) but the union of observed and
      predicted races is schedule-independent and equals [k_racy] —
      [k_racy] here is ground truth under MPI synchronization semantics,
      i.e. whether {e some} legal schedule overlaps the pair. Includes
      the safe controls (disjoint locations, fence separation,
      flush-then-barrier, accumulate atomicity) showing where the weak
      order genuinely synchronises. *)

  val find : string -> t option
  (** Looks through [all], [hybrid] and [predictive]. *)
end
