(** Common shape of a race-detection tool pluggable into the simulated
    runtime. *)

type mode =
  | Abort_on_race
      (** Raise {!Report.Race_abort} at the first race — the published
          RMA-Analyzer behaviour. *)
  | Collect  (** Record every race and keep running (harness mode). *)

type bst_summary = {
  stores : int;  (** Number of (rank, window) trees created. *)
  nodes_final_total : int;
      (** Sum over trees of the node count at the last epoch close (or
          now, for trees whose epoch is still open) — the paper's
          "number of nodes in the BST" (Table 4). *)
  nodes_peak_total : int;
  inserts_total : int;
  fragments_total : int;
  merges_total : int;
  degraded_drops_total : int;
      (** Sum over trees of nodes evicted or coarsened away by budget
          governance ({!Rma_store.Governor}); non-zero means the run
          degraded and its verdicts may be incomplete — surfaced as
          [degraded_drops] in {!Rma_report.Harness.metrics}. *)
}

val empty_bst_summary : bst_summary

type t = {
  name : string;
  observer : Mpi_sim.Event.observer;
  races : unit -> Report.t list;
      (** Chronological; capped at {!max_reports} — compare with
          [race_count] to spot truncation, or use {!dropped_races}. *)
  race_count : unit -> int;  (** Total reported, including uncapped. *)
  bst_summary : unit -> bst_summary;
      (** All-zero for tools that do not use interval trees. *)
  reset : unit -> unit;  (** Forget all state (fresh run). *)
}

val max_reports : int
(** Reports a detector stores (1000); it keeps counting past them. *)

val flagged : t -> bool
(** At least one race recorded. *)

val stored_races : t -> int
(** Number of reports actually kept ([List.length (races ())]). *)

val dropped_races : t -> int
(** Reports counted but not stored because the {!max_reports} cap was
    hit; 0 when nothing was truncated. *)

val baseline : t
(** The no-tool configuration: observes nothing, costs nothing. *)
