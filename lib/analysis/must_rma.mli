(** MUST-RMA-style baseline: vector-clock happens-before plus a
    ThreadSanitizer-style shadow memory (Schwitanski et al. 2022).

    Modelled behaviour (and the modelled sources of its published
    weaknesses and overheads):

    - every access is instrumented — no alias filtering — so the tool
      pays shadow work even for accesses the RMA-Analyzer family
      filters out (the §5.3 over-instrumentation overhead);
    - accesses touching stack allocations are invisible (TSan does not
      instrument stack arrays), yielding the Table 3 false negatives;
    - each one-sided operation runs on a fresh {e virtual thread} whose
      clock snapshots the origin at issue; the virtual thread joins the
      origin at epoch close, and other ranks only learn about it through
      later synchronisation — MUST's concurrent-region construction;
    - collectives merge clocks and charge a piggyback cost growing with
      the clock size, reproducing the rank-count scaling of Figures
      11/12. *)

val create : nprocs:int -> ?config:Mpi_sim.Config.t -> ?mode:Tool.mode -> unit -> Tool.t
(** Defaults: [config = Mpi_sim.Config.default], [mode = Collect] (TSan
    reports races and keeps running). *)
