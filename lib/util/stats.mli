(** Streaming and batch descriptive statistics.

    Used by the benchmark harness to summarise per-epoch times and BST
    node counts. The streaming accumulator uses Welford's algorithm so a
    long run never stores its samples. *)

type t
(** Mutable streaming accumulator. *)

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

val mean : t -> float
(** Mean of the samples so far; 0 when empty. *)

val variance : t -> float
(** Unbiased sample variance; 0 with fewer than two samples. *)

val min_value : t -> float
(** Smallest sample; [infinity] when empty. *)

val max_value : t -> float
(** Largest sample; [neg_infinity] when empty. *)

val total : t -> float
(** Sum of all samples. *)

val merge : t -> t -> t
(** Combined accumulator equivalent to having seen both sample sets. *)

val percentile : float array -> p:float -> float
(** [percentile samples ~p] for [p] in [0,100], linear interpolation
    between closest ranks. The array is sorted in place. Raises
    [Invalid_argument] on an empty array or out-of-range [p]. *)
