(** The data-race predicate (Figure 3 of the paper).

    Two accesses to overlapping address ranges race when at least one of
    them is an RMA access and at least one is a WRITE — except that
    program order protects one direction inside a single process: a
    local access *followed by* an RMA operation issued by the same
    process cannot race (the local access completed before the one-sided
    call was even issued), whereas an RMA operation *followed by* a
    local access can (the RMA may complete at any point up to the end of
    the epoch). Legacy RMA-Analyzer ignored this asymmetry and flagged
    both directions, producing the six false positives of Table 3; the
    paper's contribution fixes it (§5.2). The [order_aware] flag selects
    between the two behaviours so both tools can share this module. *)

type verdict =
  | No_race
  | Race of { first : Access.t; second : Access.t }
      (** Observed race: the conflict fired in the order the run took. *)
  | Predicted of { first : Access.t; second : Access.t }
      (** Schedulable race: the pair is unordered under MPI
          synchronization semantics alone, so {e some} legal schedule
          overlaps it, even if the observed run did not. Produced only
          by {!check_weak}; {!check} never returns it. *)

val conflict_kinds : order_aware:bool -> same_process:bool ->
  first:Access_kind.t -> second:Access_kind.t -> bool
(** Kind-level conflict table, ignoring intervals, under the
    single-thread assumption that same-process accesses are program
    ordered. [first] is the access already recorded (issued earlier),
    [second] the newcomer. Accesses of different processes are never
    ordered, so any RMA+WRITE combination conflicts there. Two local
    accesses never conflict. {!check} also knows threads: a local access
    by one thread followed by an RMA call by a {e different,
    unsynchronised} thread of the same rank conflicts. *)

val check : order_aware:bool -> existing:Access.t -> incoming:Access.t -> verdict
(** Full predicate: overlap of intervals plus [conflict_kinds], with
    [same_process] derived from the issuer ranks and [program_ordered]
    from {!Access.thread_ordered} over the carried thread identities. *)

val races : order_aware:bool -> existing:Access.t -> incoming:Access.t -> bool
(** [check] collapsed to a boolean. *)

val check_weak : order_aware:bool -> existing:Access.t -> incoming:Access.t -> verdict
(** {!check} evaluated under the weak (synchronization-only) order the
    predictive analyzer maintains. Same-rank conflicts are excused —
    they are either already reported by the observed rule (same phase)
    or ordered by the rank's own completion edges (unlock/flush/fence)
    under every schedule — and the Figure 3 local-then-RMA exception is
    preserved unchanged, because thread views advance only at real
    synchronization edges. Cross-rank conflicts return {!Predicted};
    never {!Race}. *)
