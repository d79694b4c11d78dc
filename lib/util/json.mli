(** A minimal JSON tree, printer and parser.

    The container ships no JSON library, and the diagnostics pipeline
    (race exports, SARIF, bench perf records) only needs the subset
    below: objects keep insertion order, numbers are [float] with
    integral values printed without a fractional part, and the parser
    accepts exactly RFC 8259 documents (no comments, no trailing
    commas). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?minify:bool -> t -> string
(** Two-space indented by default; [~minify:true] packs everything on
    one line. *)

val write : path:string -> ?minify:bool -> t -> unit

val of_string : string -> (t, string) result
(** Errors carry a byte offset and a short description. Numbers with a
    fraction or exponent parse as [Float]; integral literals as [Int]. *)

val load : path:string -> (t, string) result

(** {1 Accessors} — total lookups used by the importers. *)

val member : string -> t -> t option
(** Field of an object; [None] on missing field or non-object. *)

val to_int : t -> int option
(** [Int] directly; [Float] when integral. *)

val to_float : t -> float option
val to_str : t -> string option
val to_list : t -> t list option
val to_obj : t -> (string * t) list option
val to_bool : t -> bool option

val escape_string : string -> string
(** The quoted, escaped JSON form of a string (including quotes). *)
