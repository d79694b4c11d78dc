(** CFD-Proxy-like workload: iterative ghost-cell (halo) exchange for an
    unstructured-mesh flow solver, with the communication structure the
    paper describes (§5.3): passive-target synchronisation, {e two
    windows per rank} and {e one epoch per window} spanning all
    iterations, with [MPI_Win_flush_all] + [MPI_Barrier] between
    iterations (the §6(1) pattern).

    Each rank talks to a ring neighbourhood. Every iteration it fills a
    fresh chunk of its send region with instrumented stores (the flow
    variables being packed), then Puts the chunk into its dedicated slot
    in each neighbour's window. Per-iteration chunks are laid out
    back-to-back, so on each rank the contribution's merging collapses
    the whole run into a handful of nodes — one per (peer, window)
    stream — while the legacy store keeps one node per access: the
    90 004-nodes-versus-54 contrast behind Figure 10.

    Window layout (per window, per rank): [nprocs] reception slots of
    [iterations * chunk_bytes] each; rank [s] writes iteration [i] at
    offset [s * iterations * chunk + i * chunk]. *)

type params = {
  iterations : int;  (** The paper runs 50. *)
  neighbours : int;  (** Ring peers on each side wired per window. *)
  cells_per_chunk : int;  (** 8-byte cells packed (stored) per iteration. *)
  windows : int;  (** CFD-Proxy has two windows per rank. *)
  private_loads_per_iteration : int;
      (** Instrumented gradient-computation loads on non-exposed memory
          (alias-filtered for the RMA-Analyzer family, visible to
          ThreadSanitizer). *)
  compute_per_iteration : float;  (** Simulated solver seconds. *)
}

val default_params : params
(** 50 iterations, 1 neighbour each side, 432 cells per chunk, 2 windows
    — calibrated so each (rank, window) tree of the legacy store reaches
    ~90 000 nodes on a 12-rank run, the BST population the paper
    reports for CFD-Proxy. *)

type summary = {
  checksum : float;  (** Sum over received halo cells, for validation. *)
  halo_puts : int;
  cells_exchanged : int;
}

val program : params -> summary ref -> unit -> unit

val run :
  params ->
  nprocs:int ->
  ?seed:int ->
  ?config:Mpi_sim.Config.t ->
  ?observer:Mpi_sim.Event.observer ->
  unit ->
  Mpi_sim.Runtime.result * summary
