(** One registry for every detector configuration, shared by the CLI,
    the experiment harness and the examples. *)

type kind =
  | Baseline
  | Legacy  (** Published RMA-Analyzer. *)
  | Must  (** MUST-RMA-style happens-before baseline. *)
  | Contribution  (** The paper's algorithm. *)
  | Fragmentation_only  (** Ablation: §4.1 without §4.2. *)
  | Order_blind  (** Ablation: contribution with the legacy conflict rule. *)

val all : kind list

val name : kind -> string
(** Display name, e.g. ["Our Contribution"]. *)

val slug : kind -> string
(** Command-line identifier, e.g. ["contribution"]. *)

val of_slug : string -> kind option

val make :
  kind ->
  nprocs:int ->
  ?config:Mpi_sim.Config.t ->
  ?mode:Tool.mode ->
  ?batch_inserts:bool ->
  ?jobs:int ->
  ?budget:Rma_store.Budget.t ->
  ?predictive:bool ->
  unit ->
  Tool.t
(** Defaults: [config = Mpi_sim.Config.default], [mode = Collect], and
    the constants of {!Rma_analyzer.create} for the rest. [budget]
    affects every store-backed tool, and [predictive] the analyzer
    family (the weak-order schedulable-race analysis of DESIGN.md §15).

    [batch_inserts] and [jobs] are ignored: the coalescing buffer and
    the sharded parallel engine were removed, and neither ever changed
    a verdict. *)
