(** Minimal CSV writing (RFC-4180-style quoting) for exporting
    experiment data to external plotting tools. *)

val write : path:string -> header:string list -> string list list -> unit
(** Writes header + rows to [path], one record per line. A field that
    contains a comma, a quote or a line break is quoted, its quotes
    doubled. *)
