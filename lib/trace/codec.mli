(** Text serialisation of instrumentation event streams.

    One event per line, tab-separated, with a versioned header and a
    counting footer — stable enough to archive traces and replay them
    through any detector later (the post-mortem workflow of MC-Checker,
    §3 of the paper). Strings are percent-escaped so file names with
    tabs or newlines round-trip.

    Format 2 frames the stream: the first line is {!header}, each event
    is one line, and the last line is [rma-trace-end <count>]. The
    footer is what makes truncation — a killed writer, a full disk, an
    injected [Trace_truncate] fault — detectable even when the cut
    falls exactly on a line boundary. Format 1 (the same lines without
    the footer) is no longer read: its header is rejected with a
    [bad header] error naming the unsupported format.

    Decoding is {e total}: {!decode_event} and {!read_all} return
    [Error] on any malformed, truncated or bit-flipped input and never
    raise or loop — the fuzz suite in [test/test_fuzz.ml] holds them to
    that. Given a {!Rma_fault} schedule, {!write_all} is the
    injection point for the [Trace_corrupt] (one flipped bit in an
    encoded line) and [Trace_truncate] (stream cut mid-line, footer
    lost) sites.

    Lines are written and read in place: {!write_all} appends each
    field to one buffer per stream, and the decoders scan the fields of
    a line without splitting it, reusing the previous line's file and
    operation strings when their bytes repeat. Neither contract moved
    with that rewrite. The bytes written are those of the split-and-join
    codec it replaced ([test/golden/trace_kernels.rma] pins them), and
    decoding accepts the same lines, yields the same events and reports
    the same error strings — field text that is not in the encoder's
    canonical form goes through the general [int_of_string_opt] /
    [float_of_string_opt] parsers, as before. A frozen copy of the old
    codec in the test suite is the oracle for both. *)

val header : string
(** First line of every trace file (format 2). *)

val footer : int -> string
(** [footer n] is the closing line of a stream carrying [n] events. *)

(** {1 Decoding errors} *)

type error = {
  at_line : int;  (** 1-based line number in the stream; the header is line 1. *)
  reason : string;
}

val error_to_string : error -> string
val pp_error : Format.formatter -> error -> unit

(** {1 Events} *)

val encode_event : Mpi_sim.Event.event -> string
(** One line, no trailing newline. *)

val decode_event : string -> (Mpi_sim.Event.event, string) result
(** Total: any input yields [Ok] or [Error], never an exception. *)

val write_all : ?faults:Rma_fault.t -> out_channel -> Mpi_sim.Event.event list -> unit
(** Header, one line per event, footer. Under a fault schedule,
    each line first passes the [Trace_truncate] site (fires: the stream
    stops after a prefix of that line and the footer is never written)
    and then the [Trace_corrupt] site (fires: one deterministic bit of
    the line is flipped). *)

val read_all : in_channel -> (Mpi_sim.Event.event list, error) result
(** Validates the header, decodes every line, and requires the footer
    and checks its count; a missing or mismatching footer reports
    truncation. Stops at the first malformed line. Blank lines are
    ignored. *)

(** {1 Incremental decoding}

    The [serve] daemon receives one Codec stream per socket session and
    must make progress a line at a time, interleaved with other
    sessions. {!Incremental} is the same total grammar as {!read_all},
    refactored into a push decoder: hand it each complete line (without
    its newline) as it arrives and it yields decoded events until the
    footer closes the frame. A stream that ends before its footer was
    cut short; the caller treats end-of-input there as a disconnect. *)

module Incremental : sig
  type t
  (** Mutable framing state for one stream. *)

  (** Result of feeding one line:
      - [Event e] — the line decoded to an event.
      - [Skip] — the line carried no event (header, blank line, or any
        line after a completed frame).
      - [Complete n] — the line was a valid footer for the [n] events
        seen; the frame is complete. *)
  type step = Event of Mpi_sim.Event.event | Skip | Complete of int

  val create : unit -> t
  (** A fresh decoder expecting the format-2 header line first. *)

  val feed : t -> string -> (step, error) result
  (** Consume one line. Total, like {!decode_event}: malformed input
      yields [Error] with the 1-based line number (header = line 1),
      never an exception. After the first [Error] the decoder state is
      unspecified — abandon the stream. *)
end

val escape : string -> string
val unescape : string -> string
