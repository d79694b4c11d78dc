(** Text serialisation of instrumentation event streams.

    One event per line, tab-separated, with a versioned header and a
    counting footer — stable enough to archive traces and replay them
    through any detector later (the post-mortem workflow of MC-Checker,
    §3 of the paper). Strings are percent-escaped so file names with
    tabs or newlines round-trip.

    Format 2 frames the stream: the first line is {!header}, each event
    is one line, and the last line is [rma-trace-end <count>]. The
    footer is what makes truncation — a killed writer, a full disk —
    detectable even when the cut falls exactly on a line boundary.
    Format 1 (the same lines without the footer) is no longer read: its
    header is rejected with a [bad header] error naming the unsupported
    format.

    Decoding is {e total}: {!Incremental.feed} and {!read_all} return
    [Error] on any malformed, truncated or bit-flipped input and never
    raise or loop — the fuzz suite in [test/test_fuzz.ml] holds them to
    that, and [test/test_trace.ml] feeds them written traces cut short
    and bit-flipped.

    Lines are written and read in place, field by field, with the bytes
    and errors of the split-and-join codec this replaced: a frozen copy
    of it in the test suite is the oracle (DESIGN.md §17). *)

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

(** {1 Events} *)

val encode_event : Mpi_sim.Event.event -> string
(** One line, no trailing newline. *)

(** {1 Writing} *)

(** One stream: the header, a line per {!add}, the footer at {!close}.
    Lines gather in one 64 KiB buffer handed to the channel as it fills. *)
module Writer : sig
  type t

  val create : out_channel -> t
  val add : t -> Mpi_sim.Event.event -> unit

  val count : t -> int
  (** Events added. *)

  val close : t -> unit
  (** The footer, then every buffered byte to the channel, which stays
      open. Call it once, after the last {!add}. *)
end

val write_all : out_channel -> Mpi_sim.Event.event list -> unit
(** One {!Writer} over a list. *)

(** {1 Reading}

    Every reader decodes through {!Incremental}: the [serve] daemon
    feeds it one socket line at a time, {!fold} one file line at a time,
    both split by {!Rma_util.Lines.split_lines}, which drops the ['\r']
    of a CRLF line ending. A line is decoded where it was read, as a
    slice of the read buffer; whatever the decoder keeps from it is a
    copy (DESIGN.md §17).
    Each error it returns is journaled once, as a [read_error]. *)

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

  val feed_slice : t -> string -> int -> int -> (step, error) result
  (** [feed_slice t s start stop] consumes the line [s.[start..stop-1]].
      Total: malformed input yields [Error] with the 1-based line number
      (header = line 1), never an exception. After the first [Error] the
      decoder state is unspecified — abandon the stream. Nothing decoded
      shares [s], so its bytes may change once this returns. *)

  val feed : t -> string -> (step, error) result
  (** {!feed_slice} over the whole string. *)

  val finish : t -> (int, error) result
  (** End of input: the footer's count, else [empty trace] or
      [truncated trace: missing rma-trace-end footer]. *)
end

val fold :
  in_channel ->
  (Incremental.t -> string -> int -> int -> (Incremental.step, 'e) result) ->
  error:(error -> 'e) ->
  (int, 'e) result
(** Each line to the step, with one decoder, until an [Error] or the
    footer's count; the step gets the line as {!Incremental.feed_slice}
    takes it, a view of the read buffer. Lines split as
    {!Rma_util.Lines.iter_slices} splits them (the last needs no
    newline, a CRLF ending reads as LF); one longer than
    {!Rma_util.Lines.max_line_bytes} is [line N: line too long] and is
    never held whole, so reading any file holds at most two 64 KiB
    blocks beyond the decoder. End of input first is
    {!Incremental.finish}'s error. [error] maps the reader's own errors,
    these two, into the step's error type. *)

val read_all : in_channel -> (Mpi_sim.Event.event list, error) result
(** {!fold} over {!Incremental.feed_slice}, keeping the events. *)
