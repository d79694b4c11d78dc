(** Bounded line splitting for byte streams: trace files, journal files
    and socket reads all cut their lines here, under one length cap. *)

val max_line_bytes : int
(** Longest line, without its ['\n'], that any reader accepts (64 KiB). *)

val split_lines : Buffer.t -> bytes -> int -> (string -> int -> int -> unit) -> bool
(** [split_lines pending chunk len emit] passes each line that the first
    [len] bytes of [chunk] complete to [emit s start stop], the line
    being [s.[start..stop-1]], without its ['\n'] and without one ['\r']
    just before it, and keeps the unterminated tail in [pending] for the
    next chunk. A line inside the chunk is a view of [chunk] itself,
    valid only until [emit] returns: [emit] copies what it keeps. Only a
    line begun in an earlier chunk is copied, out of [pending]. It
    returns [false] once a line grows past {!max_line_bytes}, holding
    nothing of it past that cap; the lines before it were emitted. *)

val max_quoted : int
(** Bytes of an input that an error message names (64). *)

val clip : string -> string
(** The input as is up to {!max_quoted} bytes; a longer one is cut
    there and followed by ["… (N bytes)"], N its full length. So no
    error grows with the input it names. *)

val quote : string -> string
(** {!clip} with the kept bytes quoted as by [%S]. *)

val iter_slices : in_channel -> (string -> int -> int -> unit) -> bool
(** Every line of the channel to [emit], as {!split_lines} passes it,
    read in 64 KiB chunks; a last line needs no newline, as with
    [input_line]. [false] at the first line longer than
    {!max_line_bytes}, which is never held whole: reading holds at most
    two 64 KiB blocks. [emit] may raise to stop early. *)

val iter_channel : in_channel -> (string -> unit) -> bool
(** {!iter_slices} with each line copied into a string of its own. *)
