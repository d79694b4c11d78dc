(** Cost model of the simulated machine.

    Simulated time is tracked per rank in seconds. Communication follows
    a LogP-flavoured alpha/beta model: a message of [n] bytes costs
    [alpha + beta * n] end to end. Collectives pay a logarithmic tree.
    The defaults loosely mimic an InfiniBand HDR cluster (the paper's
    testbed): ~1.5 us latency, ~25 GB/s links.

    [analysis_overhead_scale] converts the detector's {e measured}
    wall-clock seconds into simulated seconds: the detectors do their
    real data-structure work inside this process, and that measured cost
    is injected into the simulated clock of the rank that triggered it.
    1.0 means one real second of analysis = one simulated second. *)

type t = {
  alpha_msg : float;  (** Per-message latency (s). *)
  beta_byte : float;  (** Per-byte transfer cost (s/byte). *)
  alpha_rma : float;  (** Origin-side issue overhead of Put/Get (s). *)
  alpha_sync : float;  (** Epoch open/close bookkeeping cost (s). *)
  apply_early_probability : float;
      (** Probability that a Put/Get's data movement is applied at issue
          time rather than at epoch completion — the source of observable
          nondeterminism for racy programs. *)
  analysis_overhead_scale : float;
  analysis_self_timed : bool;
      (** When false (the default), the runtime measures each observer
          call's wall time and charges [wall * analysis_overhead_scale]
          to the triggering rank. When true the runtime charges only the
          observer's returned protocol cost, and the observer is
          responsible for folding its own modelled analysis seconds into
          that return value. No bundled detector sets it. *)
  memory_size : int;
      (** Initial capacity in bytes of each rank's address space (4096 in
          {!default}), not a limit: it doubles whenever an allocation needs room. *)
}

val default : t

val message_cost : t -> bytes_count:int -> float
(** [alpha_msg + beta_byte * bytes]. *)

val collective_cost : t -> nprocs:int -> bytes_count:int -> float
(** Tree collective: [ceil(log2 P)] message steps. *)
