(** The one ingestion path for Codec streams. A [serve] session calls
    {!line} on each socket line and [rma_race analyze] folds it over a
    file ({!file}), so both feed the tool each event as it is decoded,
    hold no trace in memory, and fail with the same reasons. *)

val event : Rma_analysis.Tool.t -> Mpi_sim.Event.event -> (unit, string) result
(** Feed one event. A [Race_abort] is absorbed; a fail-fast budget's
    [Exhausted msg] is [Error "budget exhausted: msg"]. *)

val line :
  Rma_analysis.Tool.t ->
  Codec.Incremental.t ->
  string ->
  int ->
  int ->
  (Codec.Incremental.step, string) result
(** [line tool dec s start stop] decodes the line [s.[start..stop-1]],
    as {!Codec.Incremental.feed_slice} does, and feeds its event, if
    any. A decoding error is its {!Codec.error_to_string} text. *)

val ranks : string -> (int, string) result
(** A trace file's highest rank plus one: {!line} over the file into a
    tool that folds {!Post_mortem.nprocs_step} and keeps no event. *)

type run = { tool : Rma_analysis.Tool.t; nprocs : int; events : int }

val file :
  ?nprocs:int -> make_tool:(nprocs:int -> Rma_analysis.Tool.t) -> string -> (run, string) result
(** {!ranks} unless [nprocs] is given, then {!line} over the file into
    [make_tool ~nprocs]. The first error is the
    result, so a trace that fails after events were fed yields no
    verdicts. *)
