open Rma_access

(** Race reports, rendered in the style the paper shows for the MiniVite
    injection (Figure 9b), extended with machine-readable provenance for
    the JSON/SARIF exporters and the [explain] subcommand. *)

type witness = {
  w_phase : int;
      (** Weak synchronization phase (count of fence / flushed-barrier
          edges since the window's last true synchronization) both sides
          fall into. *)
  w_existing_clock : (int * int) list;
      (** Weak-clock components at the existing side's issue point. *)
  w_incoming_clock : (int * int) list;
      (** Weak-clock components at the incoming side's issue point. *)
  w_observed_existing : (int * int) list;
      (** Observed-clock components at the same points — the schedule
          edges that separated the pair in the run actually taken. *)
  w_observed_incoming : (int * int) list;
  w_reorder : string;
      (** Human-readable witness reordering: which rank's progress must
          be delayed (or advanced) for the two accesses to overlap. *)
}
(** Evidence attached to a predicted (schedulable) race: the weak-order
    state proving the pair unordered under MPI semantics alone, plus the
    reordering that realizes the overlap. *)

type provenance = {
  id : int;
      (** Stable 1-based identifier within the producing tool's run —
          the race id the CLI's [explain] subcommand takes. 0 = unset. *)
  epoch : int option;
      (** Store epoch (per (rank, window) tree) active at detection,
          when the flight recorder tracked it. *)
  vclock : (int * int) list option;
      (** Non-zero vector-clock components observed at detection, for
          the happens-before based tools. *)
  existing_history : Rma_store.Flight_recorder.origin list;
      (** Original (pre-fragmentation) accesses overlapping the existing
          side's interval — the source accesses that were fragmented or
          merged into the node the race fired against. Empty without the
          flight recorder. *)
  incoming_history : Rma_store.Flight_recorder.origin list;
      (** Same for the incoming side's byte range. *)
  degraded : bool;
      (** The detecting store had already dropped or coarsened nodes
          under budget governance ([degraded_drops] in
          {!Rma_store.Store_intf.stats}) when this race fired: the
          report is real, but its provenance (and the completeness of
          the surrounding run) is weakened. Exported as downgraded
          confidence in SARIF (level [warning] plus a
          [confidence: downgraded] property). *)
  predicted : bool;
      (** This is a {e schedulable} race from the predictive analysis:
          the observed run kept the two accesses apart, but no MPI
          synchronization edge orders them, so some legal schedule
          overlaps them. Observed races carry [false]. *)
  witness : witness option;
      (** Present exactly when [predicted] — the weak-order evidence. *)
}

val empty_provenance : provenance

type t = {
  tool : string;
  space : int;  (** Rank whose address space holds the conflict. *)
  win : Mpi_sim.Event.win_id option;
  existing : Access.t;
  incoming : Access.t;
  sim_time : float;
  provenance : provenance;
}

exception Race_abort of t
(** Raised by a tool running in [Abort_on_race] mode — the simulated
    equivalent of the MPI_Abort the real tool issues. *)

val make :
  tool:string ->
  space:int ->
  win:Mpi_sim.Event.win_id option ->
  existing:Access.t ->
  incoming:Access.t ->
  sim_time:float ->
  ?provenance:provenance ->
  unit ->
  t

val to_message : t -> string
(** Figure 9b wording: "Error when inserting memory access of type
    RMA_WRITE from file ./dspl.hpp:614 with already inserted interval of
    type RMA_WRITE from file ./dspl.hpp:612. ..." *)

val pp : Format.formatter -> t -> unit

val matrix_cell : t -> string
(** The Figure 3 conflict-matrix cell that fired, e.g.
    ["RMA_WRITE x LOCAL_READ (same process)"]. *)

val contributing_debugs : t -> Debug_info.t list
(** Every distinct source location implicated in the race: the two
    surviving sides plus all flight-recorder history origins, in first
    appearance order. This is what the SARIF export lists as related
    locations — with the recorder on, it names source accesses whose
    debug info merging had discarded from the tree. *)
