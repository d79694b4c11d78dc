(** One entry point per table/figure of the paper's evaluation (§5).

    Every function renders a paper-shaped text table (plus explanatory
    header) and returns the underlying numbers so tests can pin the
    qualitative claims. Sizes default to one tenth of the paper's
    workloads so the full set regenerates in minutes; pass
    [~scale:1.0] for paper-size runs.

    The experiments that build detectors take the run's configuration
    ([?run], default {!Rma_config.Run_config.default}) and hand it to
    every tool they create ({!Harness.make_tool}). The store-level
    figures ({!fig5}, {!fig8} and the store loops of {!ablation})
    measure bare, unbounded stores. *)

type verdict_row = { code : string; legacy : bool; must : bool; contribution : bool }

val table2 :
  ?run:Rma_config.Run_config.t -> unit -> verdict_row list * string
(** Verdicts of the three tools on the four §5.2 example codes. *)

type confusion_row = {
  tool : string;
  fp : int;
  fn : int;
  tp : int;
  tn : int;
  dropped : int;  (** Reports past the {!Rma_analysis.Tool.max_reports} cap. *)
}

val table3 :
  ?run:Rma_config.Run_config.t -> unit -> confusion_row list * string
(** Confusion matrices over the full 154-code suite. *)

type table4_row = {
  ranks : int;
  vertices : int;
  legacy_nodes : int;
  contribution_nodes : int;
  legacy_peak : int;  (** Peak live BST nodes across the run. *)
  contribution_peak : int;
  reduction : float;  (** Fraction in [0,1]. *)
}

val table4 :
  ?scale:float -> ?ranks:int list -> ?run:Rma_config.Run_config.t -> unit ->
  table4_row list * string
(** MiniVite BST node counts, 32–256 ranks, two input sizes
    (scale × 640 000 and scale × 1 280 000 vertices). *)

val fig5 : unit -> string
(** The Code 1 trees: legacy's silent miss, the Figure 5b fragmented
    tree, and the contribution's race report. *)

type fig8_result = {
  legacy_nodes : int;
  contribution_nodes : int;
  final_get_flagged : bool;
}

val fig8 : unit -> fig8_result * string
(** Code 2: the 1000-iteration Get loop — node explosion versus merged
    tree, plus the verdict on the trailing duplicated Get. *)

val fig9 : ?run:Rma_config.Run_config.t -> unit -> string
(** The MiniVite fault injection and the report our tool prints. *)

type perf_row = {
  tool : string;
  nprocs : int;
  epoch_time : float;  (** Mean simulated per-rank epoch time (s). *)
  exec_time : float;  (** Simulated makespan (s). *)
  wall : float;
  nodes : int;
  nodes_peak : int;  (** Peak live BST nodes (memory high-water mark). *)
  races : int;
  dropped : int;  (** Reports past the {!Rma_analysis.Tool.max_reports} cap. *)
  degraded : int;
      (** Nodes spilled/coarsened by the resource governor — nonzero
          marks a best-effort verdict (see {!Harness.metrics}). *)
}

val fig10 : ?run:Rma_config.Run_config.t -> unit -> perf_row list * string
(** CFD-Proxy cumulative epoch time, 12 ranks, 50 iterations, the four
    methods, each the best of two runs; includes the 90k-to-dozens node
    collapse. *)

val fig11 :
  ?scale:float -> ?ranks:int list -> ?run:Rma_config.Run_config.t -> unit ->
  perf_row list * string
(** MiniVite execution time, 32–256 ranks, scale × 640 000 vertices. *)

val fig12 :
  ?scale:float -> ?ranks:int list -> ?run:Rma_config.Run_config.t -> unit ->
  perf_row list * string
(** Same with scale × 1 280 000 vertices. *)

type ablation_row = { variant : string; nodes : int; races : int; wall : float }

val ablation : ?run:Rma_config.Run_config.t -> unit -> ablation_row list * string
(** Design-choice ablations: fragmentation without merging (node
    explosion), order-blind conflict rule (false positives back), and
    the full contribution, on the Code 2 loop and the microbenchmark
    suite. *)

val export :
  dir:string -> ?scale:float -> ?ranks:int list -> ?run:Rma_config.Run_config.t -> string list ->
  unit
(** [export ~dir experiments] regenerates the named experiments
    ("table2" ... "fig12", "ablation") and writes one CSV per experiment
    into [dir] (created if missing), plus the generated C sources of the
    microbenchmark suite when "suite" is requested. *)
