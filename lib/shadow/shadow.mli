open Rma_access

(** ThreadSanitizer-style shadow memory.

    One shadow cell records one memory access: which (possibly virtual)
    thread performed it, that thread's clock value at the time, the byte
    range inside its 8-byte granule, its access kind, and its debug
    location. Like TSan, each granule keeps at most 4 cells, TSan's
    historical shadow width (eviction is FIFO), the happens-before test
    against a new access is O(1), and granules are 8 bytes wide.

    The happens-before predicate is injected at creation time so the
    driver can implement virtual-thread semantics (MUST-RMA models every
    one-sided operation as its own concurrent region that joins its
    origin at epoch close) without the shadow memory knowing about
    epochs. *)

type cell = {
  stamp : Rma_vclock.Vclock.stamp;
  lo : int;  (** Absolute first byte covered within the granule. *)
  hi : int;
  kind : Access_kind.t;
  issuer : int;  (** Real rank behind the (possibly virtual) thread. *)
  debug : Debug_info.t;
}

type race = { prior : cell; current : cell }

type t

val create :
  happens_before:(Rma_vclock.Vclock.stamp -> Rma_vclock.Vclock.t -> bool) -> unit -> t
(** [happens_before stamp clock] decides whether the event identified by
    [stamp] is ordered before the point where [clock] was taken. *)

val record_and_check :
  t ->
  interval:Interval.t ->
  thread:int ->
  clock:Rma_vclock.Vclock.t ->
  kind:Access_kind.t ->
  issuer:int ->
  debug:Debug_info.t ->
  race option
(** Checks the access against every overlapping shadow cell: a prior
    cell races when it is not happens-before the new access, it
    overlaps, at least one of the two wrote, and they come from
    different threads. Returns the first race found; always records the
    new access (TSan reports and carries on). *)

val clear : t -> unit
