module Obs = Rma_obs.Obs
module Events = Rma_obs.Events

let obs_shard_inserts =
  Obs.counter ~help:"Work items routed to shard queues" "par.shard_inserts"

let obs_queue_depth =
  Obs.histogram ~unit_:"items" ~help:"Shard queue depth sampled at each submit" "par.queue_depth"

let obs_barrier_wait_ns =
  Obs.histogram ~unit_:"ns" ~help:"Wall time the caller waited at each epoch barrier"
    "par.barrier_wait_ns"

let obs_barriers = Obs.counter ~help:"Epoch barriers completed" "par.barriers"

let obs_worker_crashes =
  Obs.counter ~help:"Injected shard-worker crashes (Rma_fault Worker_crash site)"
    "par.worker_crashes"

let obs_shard_recoveries =
  Obs.counter ~help:"Crashed shards successfully restarted and their journals replayed"
    "par.shard_recoveries"

let obs_recovery_fallbacks =
  Obs.counter ~help:"Shards degraded to inline sequential execution after exhausting retries"
    "par.recovery_fallbacks"

let obs_queue_overflows =
  Obs.counter ~help:"Injected queue overflows degraded to inline execution"
    "par.queue_overflows"

let obs_critical_path_ms =
  Obs.gauge
    ~help:"Accumulated critical path: per-barrier longest shard chain plus barrier overhead (ms)"
    "par.critical_path_ms"

(* Process-wide critical-path accumulator (caller thread only, like the
   engines themselves): the harness reads deltas of this around a
   workload so attribution works even when the workload creates its
   engines internally. *)
let critical_total = ref 0.0
let critical_path_total () = !critical_total

(* The pool is deliberately small: the analyzer's shards are coarse
   (whole interval trees), and the OCaml runtime caps live domains, so a
   process must never spawn domains per engine. *)
let max_jobs = 8

let clamp_jobs j = if j < 1 then 1 else if j > max_jobs then max_jobs else j

(* ------------------------------------------------------------------ *)
(* Global worker pool: one FIFO queue + one domain per worker slot,     *)
(* spawned on first use and reused by every engine. Workers never       *)
(* terminate; they block on their queue's condition variable, which     *)
(* releases the domain lock, so idle workers cost nothing and never     *)
(* stall the GC.                                                        *)
(* ------------------------------------------------------------------ *)

type worker = {
  w_queue : (unit -> unit) Queue.t;
  w_mu : Mutex.t;
  w_nonempty : Condition.t;
}

let workers =
  Array.init max_jobs (fun _ ->
      { w_queue = Queue.create (); w_mu = Mutex.create (); w_nonempty = Condition.create () })

let spawn_mu = Mutex.create ()
let spawned = ref 0

let worker_loop w =
  while true do
    Mutex.lock w.w_mu;
    while Queue.is_empty w.w_queue do
      Condition.wait w.w_nonempty w.w_mu
    done;
    let task = Queue.pop w.w_queue in
    Mutex.unlock w.w_mu;
    task ()
  done

let pool_size () = !spawned

let ensure_workers n =
  if !spawned < n then begin
    Mutex.lock spawn_mu;
    while !spawned < n do
      let idx = !spawned in
      let w = workers.(idx) in
      ignore
        (Domain.spawn (fun () ->
             (* Stamp the domain's shard identity so events emitted from
                inside tasks (governor degradation, budget exhaustion)
                carry the right shard without plumbing. *)
             Events.set_current_shard idx;
             worker_loop w));
      Events.emit ~shard:idx
        ~kv:[ ("event", "worker_spawn"); ("worker", string_of_int idx) ]
        Events.Debug "par";
      incr spawned
    done;
    Mutex.unlock spawn_mu
  end

(* ------------------------------------------------------------------ *)
(* Engines                                                              *)
(* ------------------------------------------------------------------ *)

type shard = {
  mutable inflight : int;  (* guarded by the engine mutex *)
  mutable work_seconds : float;
      (* Written only by the shard's worker, between tasks; read by the
         caller after a barrier. Both sides order their access through
         the engine mutex (the worker's completion decrement, the
         caller's barrier wait), so no torn or stale reads. *)
  mutable crashed : bool;
      (* Caller-thread only: an injected Worker_crash was decided at a
         submit boundary. While set, new tasks go to the journal instead
         of the worker; the next barrier replays them. *)
  journal : (unit -> unit) Queue.t;
      (* Caller-thread only: tasks submitted at or after the crash, in
         submission order — exactly the work queued since the last
         barrier that the dead worker never ran. *)
  mutable win_t0 : float;
      (* Absolute start of the first task and end of the last task this
         shard ran since the previous barrier (0.0 = no work yet).
         Written like work_seconds (worker, between tasks; ordered
         through the engine mutex), read and reset by the caller at the
         barrier to emit one "shard work" span per inter-barrier
         window. *)
  mutable win_t1 : float;
}

type recovery_stats = { crashes : int; recoveries : int; fallbacks : int; overflows : int }

type t = {
  n_jobs : int;
  queue_capacity : int;
  faults : Rma_fault.t option;  (* drawn on the caller thread only *)
  mu : Mutex.t;
  changed : Condition.t;  (* any inflight decrement; pending reaching 0 *)
  shards : shard array;
  mutable pend : int;
  mutable failure : exn option;
  mutable crashes : int;  (* caller-thread only, like the rest below *)
  mutable recoveries : int;
  mutable fallbacks : int;
  mutable overflows : int;
  mutable sched_trace : int;
      (* Causal-flow id minted by the latest barrier span: shard work
         spans of the following inter-barrier window bind to it, which
         is what draws barrier→shard arrows in the Chrome trace. 0
         until the first barrier. *)
  mutable critical_seconds : float;
      (* Caller-thread only: sum over this engine's barriers of the
         longest shard busy window plus the barrier overhead after it
         (see DESIGN.md §13). *)
  mutable idle : bool;  (* caller-thread only: nothing submitted since the last barrier *)
}

let create ?(jobs = 1) ?(queue_capacity = 1024) ?faults () =
  let n_jobs = clamp_jobs jobs in
  ensure_workers n_jobs;
  {
    n_jobs;
    queue_capacity = max 1 queue_capacity;
    faults;
    mu = Mutex.create ();
    changed = Condition.create ();
    shards =
      Array.init n_jobs (fun _ ->
          {
            inflight = 0;
            work_seconds = 0.0;
            crashed = false;
            journal = Queue.create ();
            win_t0 = 0.0;
            win_t1 = 0.0;
          });
    pend = 0;
    failure = None;
    crashes = 0;
    recoveries = 0;
    fallbacks = 0;
    overflows = 0;
    sched_trace = 0;
    critical_seconds = 0.0;
    idle = true;
  }

let jobs t = t.n_jobs

let shard_of t ~space ~win =
  (* Fibonacci-ish mixing keeps consecutive windows of one rank from
     piling onto one shard; the result depends only on (key, jobs). *)
  let h = (space * 0x9e3779b1) lxor (win * 0x85ebca77) in
  (h land max_int) mod t.n_jobs

let dispatch t ~shard f =
  let sh = t.shards.(shard) in
  Mutex.lock t.mu;
  while sh.inflight >= t.queue_capacity do
    Condition.wait t.changed t.mu
  done;
  sh.inflight <- sh.inflight + 1;
  t.pend <- t.pend + 1;
  let depth = sh.inflight in
  Mutex.unlock t.mu;
  if Obs.is_enabled () then begin
    Obs.incr obs_shard_inserts;
    Obs.observe_int obs_queue_depth depth
  end;
  let task () =
    let t0 = Rma_util.Timer.now () in
    let err = (try f (); None with e -> Some e) in
    let t1 = Rma_util.Timer.now () in
    sh.work_seconds <- sh.work_seconds +. (t1 -. t0);
    if sh.win_t0 = 0.0 then sh.win_t0 <- t0;
    sh.win_t1 <- t1;
    Mutex.lock t.mu;
    (match (err, t.failure) with Some e, None -> t.failure <- Some e | _ -> ());
    sh.inflight <- sh.inflight - 1;
    t.pend <- t.pend - 1;
    Condition.broadcast t.changed;
    Mutex.unlock t.mu
  in
  let w = workers.(shard) in
  Mutex.lock w.w_mu;
  Queue.push task w.w_queue;
  Condition.signal w.w_nonempty;
  Mutex.unlock w.w_mu

(* Run a task on the calling thread with worker semantics: time is
   charged to the shard's accumulator and an exception is stashed for
   the next barrier rather than raised at the submit site. *)
let run_inline t sh f =
  let t0 = Rma_util.Timer.now () in
  let err = (try f (); None with e -> Some e) in
  let t1 = Rma_util.Timer.now () in
  sh.work_seconds <- sh.work_seconds +. (t1 -. t0);
  if sh.win_t0 = 0.0 then sh.win_t0 <- t0;
  sh.win_t1 <- t1;
  match (err, t.failure) with Some e, None -> t.failure <- Some e | _ -> ()

let wait_shard_idle t sh =
  Mutex.lock t.mu;
  while sh.inflight > 0 do
    Condition.wait t.changed t.mu
  done;
  Mutex.unlock t.mu

let drain t =
  Mutex.lock t.mu;
  while t.pend > 0 do
    Condition.wait t.changed t.mu
  done;
  Mutex.unlock t.mu

let crash_shard t faults ~shard sh f =
  sh.crashed <- true;
  t.crashes <- t.crashes + 1;
  Obs.incr obs_worker_crashes;
  (* The ordinal that produced this crash is the one the fire call just
     consumed; with the plan seed — journaled alongside it — the
     coordinates replay the fault exactly ([rma_race obs replay]). *)
  Events.emit ~shard
    ~kv:
      [
        ("event", "worker_crash");
        ("site", Rma_fault.site_name Rma_fault.Worker_crash);
        ("ordinal", string_of_int (Rma_fault.ordinal faults Rma_fault.Worker_crash - 1));
        ("seed", string_of_int (Rma_fault.plan faults).Rma_fault.Plan.seed);
      ]
    Events.Warn "par";
  Queue.push f sh.journal

let submit t ~shard f =
  t.idle <- false;
  let sh = t.shards.(shard) in
  match t.faults with
  | _ when sh.crashed -> Queue.push f sh.journal
  | None -> dispatch t ~shard f
  | Some faults when Rma_fault.fire faults Rma_fault.Worker_crash ->
      crash_shard t faults ~shard sh f
  | Some faults when Rma_fault.fire faults Rma_fault.Queue_overflow ->
      (* Overflow degrades this one task to inline execution; draining the
         shard first preserves the per-shard submission order. *)
      t.overflows <- t.overflows + 1;
      Obs.incr obs_queue_overflows;
      Events.emit ~shard
        ~kv:
          [
            ("event", "queue_overflow");
            ("site", Rma_fault.site_name Rma_fault.Queue_overflow);
            ("ordinal", string_of_int (Rma_fault.ordinal faults Rma_fault.Queue_overflow - 1));
          ]
        Events.Warn "par";
      wait_shard_idle t sh;
      run_inline t sh f
  | Some _ -> dispatch t ~shard f

(* Busy-wait backoff: the engine has no Unix dependency and the delays
   in a fault plan are tiny test knobs, not production sleeps. *)
let backoff_wait seconds =
  if seconds > 0.0 then begin
    let until = Rma_util.Timer.now () +. seconds in
    while Rma_util.Timer.now () < until do
      Domain.cpu_relax ()
    done
  end

(* Restart every crashed shard and replay its journal, retrying up to
   the plan's [max_retries]; replayed submissions pass through the
   Worker_crash injection point again, so a replay can deterministically
   re-crash. Exhausted retries run the remaining journal inline on the
   calling thread (sequential degrade) — analysis always completes, and
   because the journal preserves submission order the verdicts are the
   sequential ones either way. Caller thread only, called at barriers. *)
let recover t faults =
  let plan = Rma_fault.plan faults in
  Array.iteri
    (fun shard sh ->
      if sh.crashed then begin
        let attempts = ref 0 in
        while sh.crashed && !attempts < plan.Rma_fault.Plan.max_retries do
          incr attempts;
          backoff_wait plan.Rma_fault.Plan.backoff;
          sh.crashed <- false;
          let replay = Queue.create () in
          Queue.transfer sh.journal replay;
          Queue.iter
            (fun f ->
              if sh.crashed then Queue.push f sh.journal
              else if Rma_fault.fire faults Rma_fault.Worker_crash then
                crash_shard t faults ~shard sh f
              else dispatch t ~shard f)
            replay;
          drain t;
          if not sh.crashed then begin
            t.recoveries <- t.recoveries + 1;
            Obs.incr obs_shard_recoveries;
            Events.emit ~shard
              ~kv:[ ("event", "shard_recovery"); ("attempts", string_of_int !attempts) ]
              Events.Info "par"
          end
        done;
        if sh.crashed then begin
          (* Sequential fallback: no more injection, the work must land. *)
          sh.crashed <- false;
          t.fallbacks <- t.fallbacks + 1;
          Obs.incr obs_recovery_fallbacks;
          Events.emit ~shard
            ~kv:
              [
                ("event", "sequential_fallback");
                ("reason", "retries_exhausted");
                ("journaled", string_of_int (Queue.length sh.journal));
              ]
            Events.Warn "par";
          while not (Queue.is_empty sh.journal) do
            run_inline t sh (Queue.pop sh.journal)
          done
        end
      end)
    t.shards

let has_crashed t = Array.exists (fun sh -> sh.crashed) t.shards

(* Emit one "shard work" span per shard that ran tasks since the last
   barrier (wall pid, tid = shard + 1), bound by parent_id to the flow
   the previous barrier span originated — that is the arrow from the
   barrier that scheduled the work to the shard that ran it. Caller
   thread, after drain: no task is concurrently writing the window. *)
let emit_shard_windows t =
  Array.iteri
    (fun shard sh ->
      if sh.win_t0 > 0.0 then
        Obs.emit_span ~cat:"shard" ~parent_id:t.sched_trace
          ~args:[ ("shard", string_of_int shard) ]
          ~pid:Obs.wall_pid ~tid:(shard + 1) ~t0:(Obs.rel_time sh.win_t0)
          ~t1:(Obs.rel_time sh.win_t1) "shard work")
    t.shards

let ms seconds = Printf.sprintf "%.3f" (seconds *. 1000.0)

let run_barrier t =
  let t0 = Rma_util.Timer.now () in
  drain t;
  (match t.faults with Some faults when has_crashed t -> recover t faults | _ -> ());
  Mutex.lock t.mu;
  let err = t.failure in
  t.failure <- None;
  Mutex.unlock t.mu;
  let t1 = Rma_util.Timer.now () in
  (* Critical path of the inter-barrier window that just closed: the
     longest shard busy window — the chain a perfectly parallel epoch
     cannot beat — plus the overhead between the last shard finishing
     and the barrier completing (drain wakeups, recovery, replay). With
     no shard windows the whole barrier wait is overhead. Accrued
     whether or not Obs is on, so the bench attributes the speedup
     ceiling without paying for tracing. *)
  let longest = ref 0.0 and last_end = ref 0.0 in
  Array.iter
    (fun sh ->
      if sh.win_t0 > 0.0 then begin
        let d = sh.win_t1 -. sh.win_t0 in
        if d > !longest then longest := d;
        if sh.win_t1 > !last_end then last_end := sh.win_t1
      end)
    t.shards;
  let overhead =
    if !last_end > 0.0 then Float.max 0.0 (t1 -. !last_end) else Float.max 0.0 (t1 -. t0)
  in
  let chain = !longest +. overhead in
  t.critical_seconds <- t.critical_seconds +. chain;
  critical_total := !critical_total +. chain;
  if Obs.is_enabled () then begin
    Obs.incr obs_barriers;
    Obs.observe obs_barrier_wait_ns ((t1 -. t0) *. 1e9);
    Obs.set_gauge obs_critical_path_ms (!critical_total *. 1000.0);
    emit_shard_windows t;
    (* The barrier span originates the causal flow that the next
       window's shard spans will bind to. *)
    let trace = Obs.fresh_id () in
    Obs.emit_span ~cat:"barrier" ~trace_id:trace
      ~args:[ ("critical_path_ms", ms chain) ]
      ~pid:Obs.wall_pid ~tid:0 ~t0:(Obs.rel_time t0) ~t1:(Obs.rel_time t1) "epoch barrier";
    t.sched_trace <- trace;
    (* Debug, not Info: the values are wall-clock and would churn the
       golden journal, and per-barrier records are only post-mortem
       material ([obs stats] sums critical_path_ms from them). *)
    Events.emit
      ~kv:
        [
          ("event", "barrier");
          ("critical_path_ms", ms chain);
          ("longest_ms", ms !longest);
          ("overhead_ms", ms overhead);
          ("wait_ms", ms (t1 -. t0));
          ("flow", string_of_int trace);
        ]
      Events.Debug "par"
  end;
  Array.iter
    (fun sh ->
      sh.win_t0 <- 0.0;
      sh.win_t1 <- 0.0)
    t.shards;
  match err with Some e -> raise e | None -> ()

(* With nothing submitted since the last barrier, no task, crash or
   stashed failure can be outstanding. *)
let barrier t =
  if not t.idle then begin
    t.idle <- true;
    run_barrier t
  end

let critical_path_seconds t = t.critical_seconds

let recovery_stats t =
  { crashes = t.crashes; recoveries = t.recoveries; fallbacks = t.fallbacks; overflows = t.overflows }

let pending t =
  Mutex.lock t.mu;
  let p = t.pend in
  Mutex.unlock t.mu;
  p

let take_work_seconds t =
  let worst = ref 0.0 in
  Array.iter
    (fun sh ->
      if sh.work_seconds > !worst then worst := sh.work_seconds;
      sh.work_seconds <- 0.0)
    t.shards;
  !worst
