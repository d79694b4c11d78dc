open Rma_access

(** The simulated MPI runtime.

    [run ~nprocs program] executes [nprocs] copies of [program], each as
    an effect-handler fiber owning its own address space, under a
    deterministic seeded scheduler. All MPI-like operations are
    performed through the {!Mpi} wrappers, which raise the runtime's
    effect; the scheduler services requests one at a time, interleaving
    ranks pseudo-randomly, tracking a simulated clock per rank with the
    {!Config} cost model, and streaming instrumentation events to the
    observer.

    MPI-RMA semantics follow the MPI-4 standard as the paper reads it
    (§6): one-sided data movement is {e deferred} — each Put/Get is
    applied either eagerly at issue or lazily at the origin's next
    flush/unlock, chosen by seeded coin — so racy programs genuinely
    produce different memory contents under different seeds;
    [MPI_Barrier] does {e not} complete outstanding RMA operations. *)

exception Mpi_error of string
(** Misuse of the interface by a rank program: RMA outside an epoch,
    out-of-bounds window displacement, double lock, mismatched
    collectives... *)

exception Deadlock of string
(** No rank can make progress; the message lists each blocked rank. *)

(* The request/reply protocol between a rank fiber and the scheduler.
   Rank programs never use these directly; the Mpi module wraps them. *)

type reduce_op = Sum | Max | Min

type message = { src : int; tag : int; data : Bytes.t; sent_at : float }

type request =
  | R_rank
  | R_size
  | R_compute of float
  | R_alloc of { size : int; label : string; storage : Memory.storage; exposed : bool }
  | R_load of { addr : int; len : int; loc : Debug_info.t }
  | R_store of { addr : int; data : Bytes.t; loc : Debug_info.t }
  | R_win_create of { base : int; size : int }
  | R_win_free of { win : Event.win_id }
  | R_lock_all of { win : Event.win_id; loc : Debug_info.t }
  | R_unlock_all of { win : Event.win_id; loc : Debug_info.t }
  | R_lock of { win : Event.win_id; target : int; exclusive : bool; loc : Debug_info.t }
  | R_unlock of { win : Event.win_id; target : int; loc : Debug_info.t }
  | R_flush_all of { win : Event.win_id; loc : Debug_info.t }
  | R_fence of { win : Event.win_id; loc : Debug_info.t }
  | R_flush of { win : Event.win_id; target : int; loc : Debug_info.t }
  | R_put of {
      win : Event.win_id;
      target : int;
      target_disp : int;
      origin_addr : int;
      len : int;
      loc : Debug_info.t;
    }
  | R_get of {
      win : Event.win_id;
      target : int;
      target_disp : int;
      origin_addr : int;
      len : int;
      loc : Debug_info.t;
    }
  | R_accumulate of {
      win : Event.win_id;
      target : int;
      target_disp : int;
      origin_addr : int;
      len : int;
      op : reduce_op;
      loc : Debug_info.t;
    }
  | R_send of { dst : int; tag : int; data : Bytes.t }
  | R_recv of { src : int option; tag : int option }
  | R_barrier
  | R_allreduce of { value : int64; op : reduce_op; as_float : bool }
  | R_thread_spawn of { body : unit -> unit }
  | R_thread_join of { tid : int }
  | R_signal of { sig_id : int }
  | R_wait of { sig_id : int }

type reply =
  | RUnit
  | RInt of int
  | RI64 of int64
  | RBytes of Bytes.t
  | RMsg of message

type _ Effect.t += Op : request -> reply Effect.t

type result = {
  clocks : float array;  (** Final simulated time per rank. *)
  epoch_times : float array;
      (** Cumulative simulated time each rank spent inside passive-target
          epochs — the Figure 10 metric. *)
  makespan : float;  (** Max of [clocks]. *)
  wall_seconds : float;  (** Real time the whole simulation took. *)
  events_emitted : int;
  accesses_emitted : int;
  threads_spawned : int;
      (** Intra-rank threads created across all ranks (main threads not
          counted); 0 for every pre-hybrid program. *)
}

val run :
  nprocs:int ->
  ?seed:int ->
  ?interleave_seed:int ->
  ?config:Config.t ->
  ?observer:Event.observer ->
  (unit -> unit) ->
  result
(** Runs the program on every rank. Raises [Mpi_error]/[Deadlock] on
    misuse, and lets any exception raised by the observer (e.g. a
    detector's race-abort) or by a rank program propagate to the
    caller.

    [?interleave_seed] decouples the scheduler's runnable-fiber picks
    from the data-level coin flips (deferred-RMA application, payloads):
    two runs with the same [seed] but different interleave seeds explore
    different thread/rank schedules over identical data behaviour. When
    omitted, scheduling draws from the [seed] stream exactly as before,
    so existing traces are byte-identical. *)
