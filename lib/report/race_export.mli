open Rma_analysis

(** Machine-readable race reports: a versioned JSON format that
    round-trips, a SARIF 2.1.0 emitter for code-review tooling, and the
    plain-text timeline behind [rma_race explain].

    Both exporters carry the full provenance a {!Report.t} holds: race
    id, window, epoch, vector-clock snapshot and the flight-recorder
    history of both sides — so a race whose contributing accesses were
    merged into a single BST node still names every source location
    involved. *)

(** {1 JSON}

    The format is versioned. Version 3 (v2 — v1 plus the optional
    [run_id] header — plus the per-race [predicted] flag and
    schedulable-race [witness] of predictive mode) is the newest; a
    header says 3 only when some report is predicted, else 2, so
    observed-only exports stay byte-identical to pre-predictive
    builds. *)

val report_json : Report.t -> Rma_util.Json.t
(** The per-race object exactly as it appears inside {!to_json}'s
    [races] array — the unit the [serve] daemon streams as one
    JSON-line per verdict, so a streamed race is byte-identical to the
    same race in an offline export. *)

val to_json : ?run_id:string -> generator:string -> Report.t list -> Rma_util.Json.t
(** [generator] names the producing command (goes into the header next
    to the schema version). [run_id] is the {!Rma_obs.Events.run_id} of
    the producing run; omitted (e.g. pre-PR7 callers, runs without
    diagnostics) the header simply lacks the field. *)

val write_json : path:string -> ?run_id:string -> generator:string -> Report.t list -> unit
(** {!to_json} into a file. *)

val load_json_with_run_id : path:string -> (Report.t list * string option, string) result
(** Inverse of {!write_json}, also surfacing the header's [run_id] when
    present: rejects unknown schema versions and malformed reports;
    accepts every version from 2 up. Writing then loading is the
    identity on every field the format carries. *)

(** {1 SARIF 2.1.0} *)

val write_sarif : path:string -> ?run_id:string -> generator:string -> Report.t list -> unit
(** One run, one [mpi-rma-data-race] rule, one result per report. The
    result's primary location is the incoming access; every other
    contributing source location ({!Report.contributing_debugs}) becomes
    a related location, and the provenance fields travel in the result's
    property bag. [run_id] lands in the run-level property bag as
    [runId]; omitted, the bag is absent (pre-PR7 output unchanged). *)

(** {1 Verdict digest} *)

val verdict_digest : Report.t list -> string
(** Hex digest over the rendered messages of the reports in order — the
    replay equality contract ([obs replay] compares this, not file
    bytes: export ids are renumbered per write and sim times embed the
    config, but the message covers tool, matrix cell and both accesses
    with their debug info). *)

(** {1 Explain} *)

val explain : Report.t -> string
(** A multi-section plain-text rendering of one race: header and
    Figure 9b message, the Figure 3 matrix cell that fired, both
    surviving accesses, the vector-clock snapshot when present, and the
    interval history of both sides as an epoch-stamped timeline. *)

val find_race : id:int -> Report.t list -> Report.t option
(** Lookup by provenance id (falls back to 1-based position for reports
    that carry no id). *)
