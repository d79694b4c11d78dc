(** Capture an instrumentation event stream in memory, as a list — for
    callers that need the whole trace, such as the {!Post_mortem}
    exhaustive oracle. Writing, reading and replaying go through the
    streaming path: {!Codec.Writer}, {!Codec.read_all} and
    {!Ingest.event}. The [record]/[analyze] subcommands stream and
    never build this list. *)

type t

val create : unit -> t
(** In-memory recorder. *)

val observer : t -> Mpi_sim.Event.observer
(** Attach to {!Mpi_sim.Runtime.run}; records every event at zero
    simulated protocol cost. Compose with another tool's observer via
    {!tee} to record and detect in one run. *)

val tee : t -> Mpi_sim.Event.observer -> Mpi_sim.Event.observer
(** Records, then forwards to the wrapped observer (returning its
    cost). *)

val events : t -> Mpi_sim.Event.event list
(** Chronological. *)

val length : t -> int

val save : t -> path:string -> unit
(** Write the trace file ({!Codec.write_all}: framed format 2). *)

val load : path:string -> (Mpi_sim.Event.event list, string) result
(** Read a trace file back; [Error] renders the structured
    {!Codec.error} (line number + reason) as text. Never raises on
    malformed input. *)

val replay : Mpi_sim.Event.event list -> tool:Rma_analysis.Tool.t -> Rma_analysis.Report.t list
(** Reset the tool, feed it each event through {!Ingest.event} and
    return its reports. A fail-fast budget's exhaustion raises
    [Failure] with {!Ingest.event}'s reason. *)
