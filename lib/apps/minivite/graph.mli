(** Distributed synthetic graphs for the MiniVite workload.

    Vertices [0 .. n_global-1] are 1-D partitioned into contiguous
    chunks; each rank stores the adjacency of its owned vertices only.
    The generator mimics the locality structure of the random geometric
    graphs miniVite is usually driven with: most edges stay within a
    window around the vertex (so ghost vertices concentrate at partition
    boundaries), a configurable fraction jump uniformly — and a few
    hub vertices attract long-range edges, giving the cross-rank
    repeated-read pattern community detection exhibits. Generation is
    deterministic in (seed, vertex), so ranks can be generated
    independently. *)

type t = {
  n_global : int;
  nprocs : int;
  rank : int;
  owned_lo : int;  (** First owned vertex (inclusive). *)
  owned_hi : int;  (** Last owned vertex (inclusive). *)
  adjacency : int array array;  (** Per owned vertex, global neighbour ids. *)
  n_edges_local : int;
}

type params = {
  n_vertices : int;
  avg_degree : int;
  locality_window : int;  (** Half-width of the local edge window. *)
  long_range_fraction : float;  (** Edges escaping the window. *)
  hub_count : int;  (** Vertices attracting long-range edges. *)
  seed : int;
}

val default_params : params
(** 64 000 vertices, average degree 8 — one tenth of the paper's
    640 000-vertex MiniVite input, so a full Figure 11 sweep runs in CI
    time. Scale [n_vertices] up for the paper-size experiment. *)

val partition : n_global:int -> nprocs:int -> rank:int -> int * int
(** [lo, hi] owned range (inclusive; empty ranges return [lo > hi]). *)

val owner_of : n_global:int -> nprocs:int -> int -> int

val generate : params -> nprocs:int -> rank:int -> t

val owned : t -> int -> bool

val ghosts : t -> int array
(** Distinct non-owned vertices adjacent to owned ones, sorted. *)
