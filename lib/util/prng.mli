(** Deterministic pseudo-random number generation.

    Every stochastic choice in the repository (scheduler interleavings,
    graph generation, workload perturbation) draws from an explicit
    [Prng.t] so that runs are reproducible from a single seed and
    independent streams can be split off without sharing state. The
    generator is SplitMix64 (Steele et al., OOPSLA 2014): 64-bit state,
    one multiply-xorshift avalanche per draw. *)

type t

val create : seed:int -> t
(** [create ~seed] builds a fresh generator. Two generators created with
    the same seed produce identical streams. *)

val copy : t -> t
(** Independent duplicate sharing no state with the original. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream. Used to
    give each simulated rank its own stream. *)

val int : t -> bound:int -> int
(** [int t ~bound] draws uniformly from [0, bound). [bound] must be
    positive. *)

val int_in_range : t -> lo:int -> hi:int -> int
(** Uniform draw from the inclusive range [lo, hi]. Requires [lo <= hi]. *)

val float : t -> bound:float -> float
(** Uniform draw from [0, bound). *)

val bool : t -> bool

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] is [true] with probability [p]. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher–Yates shuffle driven by [t]. *)

