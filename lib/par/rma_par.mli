(** Sharded parallel execution engine for the analyzers.

    The paper's detector state is partitioned by (rank, window) key —
    independent interval trees that never interact except through epoch
    synchronisation (§3, Figure 3). This module exploits that: an engine
    owns [jobs] shards, each shard is pinned to one OCaml 5 domain of a
    process-global worker pool, and work submitted for one shard runs on
    that shard's domain in submission order (a bounded FIFO queue per
    shard). Barriers drain every queue, aligning with the analyzer's
    epoch events.

    Determinism contract: a key always maps to the same shard
    ({!shard_of}), a shard's tasks run in submission order on a single
    domain, and {!barrier} completes only when every submitted task has
    run — so per-store operation sequences are exactly the sequential
    ones, and any cross-shard result (e.g. race reports) can be restored
    to the sequential order by tagging submissions on the caller's side.

    Thread discipline: {!submit}, {!barrier}, {!take_work_seconds} and
    the accessors are caller-thread only (the simulator's scheduler is
    single-threaded); task closures run on worker domains and must touch
    only shard-private state. All Obs metrics ([par.shard_inserts],
    [par.queue_depth], [par.barrier_wait_ns], [par.barriers]) are
    recorded on the calling thread — the Obs registry is not
    thread-safe, so tasks must never log to it.

    {b Fault tolerance} (DESIGN.md §11): when the engine was created
    with a {!Rma_fault.t} schedule, every {!submit} passes the
    [Worker_crash] and [Queue_overflow] injection points {e on the
    calling thread} — which is what keeps the fault schedule
    deterministic under any worker interleaving. A crashed shard journals its unexecuted tasks in
    submission order; the next {!barrier} restarts the shard and
    replays the journal, retrying up to the plan's [max_retries]
    (waiting [backoff] seconds between attempts) before degrading the
    remaining journal to inline sequential execution. An overflowed
    submit degrades that single task to inline execution after the
    shard drains. Every degradation path preserves per-shard submission
    order and runs each task exactly once, so engine-level faults are
    always verdict-preserving — recoveries are visible on the
    [par.worker_crashes], [par.shard_recoveries],
    [par.recovery_fallbacks] and [par.queue_overflows] Obs counters, in
    {!recovery_stats}, and as structured {!Rma_obs.Events} journal
    records (component ["par"], carrying the fault site and ordinal so
    an occurrence replays from the plan seed alone).

    {b Causal tracing}: each {!barrier} records an ["epoch barrier"]
    span originating a flow id, and each shard that ran tasks in the
    following inter-barrier window records one ["shard work"] span
    (wall pid, tid = shard + 1) bound to that id — the Chrome-trace
    exporter renders the pair as an arrow from the barrier that
    scheduled the work to the shard that ran it, making a slow barrier
    attributable to its slowest shard. Worker domains also stamp
    {!Rma_obs.Events.set_current_shard} so events emitted from inside
    tasks carry their shard. *)

type t

val max_jobs : int
(** Hard cap on worker domains (the pool is process-global and
    append-only, so it is bounded far below the OCaml runtime's domain
    limit). Requests beyond it are clamped. *)

val pool_size : unit -> int
(** Worker domains spawned into the process-global pool so far. The
    pool is append-only and bounded by {!max_jobs}, so a long-running
    service can assert it does not leak domains across sessions: the
    value may grow up to the largest [jobs] ever requested and must
    then stay constant. *)

val create : ?jobs:int -> ?queue_capacity:int -> ?faults:Rma_fault.t -> unit -> t
(** An engine with [jobs] shards (default 1, clamped to
    [1 .. max_jobs]) and at most [queue_capacity] (default 1024,
    minimum 1) in-flight tasks per shard. Worker domains are lazily
    spawned into the global pool and reused by every engine — creating
    engines is cheap and never leaks domains. [faults] is the run's
    fault schedule, drawn from at every {!submit} (no faults when
    omitted). *)

val jobs : t -> int

val shard_of : t -> space:int -> win:int -> int
(** Deterministic shard for a (rank address space, window) store key:
    depends only on the key and [jobs t]. *)

val submit : t -> shard:int -> (unit -> unit) -> unit
(** Enqueue a task on the shard's domain. Blocks the calling thread
    while the shard already has [queue_capacity] tasks in flight
    (back-pressure); never blocks a worker, so barriers cannot
    deadlock. A task that raises stashes its exception for the next
    {!barrier} instead of killing the worker. Under a fault schedule
    this is also the crash/overflow injection point
    (see the module preamble); tasks journaled by a crashed shard run
    at the next {!barrier}. *)

val barrier : t -> unit
(** Wait until every task submitted to this engine has completed —
    recovering crashed shards and replaying their journals first — then
    re-raise the first stashed task exception, if any. Records the wait
    in [par.barrier_wait_ns]. A no-op when nothing was submitted since
    the previous barrier: there is nothing to wait for, recover or
    re-raise, and [par.barriers] counts only barriers that waited. *)

val pending : t -> int
(** Tasks submitted but not yet completed (diagnostic; caller thread).
    Journaled tasks of a crashed shard are not counted — they run at
    the next {!barrier}. *)

type recovery_stats = {
  crashes : int;  (** Injected worker crashes (including during replay). *)
  recoveries : int;  (** Successful restart-and-replay cycles. *)
  fallbacks : int;  (** Shards degraded to inline sequential execution. *)
  overflows : int;  (** Submits degraded to inline execution by queue overflow. *)
}

val recovery_stats : t -> recovery_stats
(** Cumulative fault-recovery counters for this engine (caller
    thread); all zero when no fault plan ever fired. *)

val critical_path_seconds : t -> float
(** Accumulated critical path of this engine's epochs: at each
    {!barrier}, the longest single-shard busy window of the closing
    inter-barrier interval plus the barrier overhead after it (drain
    wakeups, crash recovery, journal replay) — the chain a perfectly
    parallel epoch cannot beat (DESIGN.md §13). Accrued whether or not
    {!Rma_obs.Obs} is enabled; caller thread. *)

val critical_path_total : unit -> float
(** Process-wide sum of {!critical_path_seconds} across every engine —
    the harness reads deltas of this around a workload so attribution
    works even when the workload creates its engines internally. *)

val take_work_seconds : t -> float
(** Critical-path cost model: the maximum over shards of wall-clock
    seconds spent running this engine's tasks since the previous take,
    and reset the accumulators. Meaningful only right after {!barrier}.
    With [jobs] balanced shards this models the per-event analysis time
    of a run whose detector work really were spread over [jobs] cores —
    which a single simulator process cannot measure directly — and is
    what {!Mpi_sim.Config.t.analysis_self_timed} charges to the
    simulated clocks. *)
