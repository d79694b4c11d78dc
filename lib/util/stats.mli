(** Descriptive statistics over a batch of samples. *)

val percentile : float array -> p:float -> float
(** [percentile samples ~p] for [p] in [0,100], linear interpolation
    between closest ranks. The array is sorted in place. Raises
    [Invalid_argument] on an empty array or out-of-range [p]. *)
