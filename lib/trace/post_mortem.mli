(** Offline (post-mortem) data-race analysis of a recorded trace, in the
    spirit of MC-Checker (§3 of the paper): happens-before regions are
    reconstructed from the synchronisation events, then every pair of
    overlapping accesses in each address space is checked — so unlike
    the on-the-fly tools, which stop at (or step over) the first
    conflict, the post-mortem pass enumerates {e every} racy statement
    pair of the execution.

    The happens-before model matches the MUST-RMA baseline's: one
    concurrent region per one-sided operation, retired into its origin
    at epoch close; collectives merge clocks; local accesses follow
    program order. *)

type race_pair = {
  space : int;  (** Address space holding the conflict. *)
  win : Mpi_sim.Event.win_id option;  (** Window involved, when known. *)
  first : Rma_access.Access.t;
  second : Rma_access.Access.t;
  first_clock : Rma_vclock.Vclock.t;
      (** Reconstructed happens-before clock at each access, kept so
          {!to_reports} can fill the same provenance fields the
          on-the-fly tools emit. *)
  second_clock : Rma_vclock.Vclock.t;
}

type result = {
  races : race_pair list;  (** Distinct (statement-pair, space) races. *)
  distinct_pairs : int;  (** = List.length races (before any capping). *)
  accesses_checked : int;
  pairs_checked : int;
}

val nprocs_step : int -> Mpi_sim.Event.event -> int
(** [max acc (r + 1)] over every rank [r] the event names (its rank, or
    an access's space and issuer). Folded from 1 over a trace it is the
    smallest rank universe containing every event: {!analyze} sizes its
    clocks so, and {!Ingest.ranks} infers [analyze]'s rank count. *)

val analyze : Mpi_sim.Event.event list -> result
(** Reports at most 10 000 distinct pairs. Duplicate races from the same
    statement pair (same file/line/operation on both sides) in the same
    space are reported once. *)

val to_reports : result -> Rma_analysis.Report.t list
(** As standard reports, tool name "MC-Checker (post-mortem)", carrying
    the same provenance fields as the on-the-fly tools: sequential race
    ids, the second access's clock snapshot, and both accesses as their
    own single-origin histories. *)
