(** Log-scale histogram for latency-like positive values.

    Buckets are spaced at factors of [2^(1/4)] (~19% resolution) from
    1e-9 upwards, so quantile estimates carry at most ~9% relative
    error — plenty for p50/p95/p99 reporting while keeping [observe]
    allocation-free (one array increment plus scalar updates). Values at
    or below 1e-9 (in particular 0, common for per-insert fragment and
    merge counts) land in a dedicated underflow bucket. *)

type t

val create : ?help:string -> ?unit_:string -> string -> t
(** [create name] makes an empty histogram. [unit_] is a display label
    ("s", "count", "nodes"...), defaulting to ["s"]. *)

val observe : t -> float -> unit
(** Record one value. Never allocates. *)

val reset : t -> unit
(** Drop all recorded values, keeping the registration. *)

val name : t -> string
val help : t -> string
val unit_label : t -> string
val count : t -> int
val sum : t -> float
val mean : t -> float

val max_value : t -> float
(** 0.0 when empty. *)

val quantile : t -> float -> float
(** [quantile t q] with [q] in [0,1]: the estimated q-quantile — the
    geometric midpoint of the bucket holding the q-th ranked value,
    clamped to the exact observed [min,max]. 0.0 when empty. *)
