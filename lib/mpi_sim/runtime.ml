open Rma_access
module Obs = Rma_obs.Obs
module Vclock = Rma_vclock.Vclock

exception Mpi_error of string
exception Deadlock of string

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
  clocks : float array;
  epoch_times : float array;
  makespan : float;
  wall_seconds : float;
  events_emitted : int;
  accesses_emitted : int;
  threads_spawned : int;
}

(* ------------------------------------------------------------------ *)
(* Scheduler state                                                      *)
(* ------------------------------------------------------------------ *)

type continuation = (reply, unit) Effect.Deep.continuation

(* A deferred one-sided data movement: [apply] performs the memcpy when
   the operation "completes"; [completion] is when the network would have
   delivered it. *)
type pending_rma = { apply : unit -> unit; completion : float; target : int }

type epoch_kind = Lock_all | Fence | Per_target
type epoch = {
  opened_at : float;
  kind : epoch_kind;
  mutable lock_count : int;  (* live per-target locks backing a Per_target epoch *)
  mutable pending : pending_rma list;
}

type lock_request = { l_origin : int; l_exclusive : bool; l_k : continuation }

type window = {
  win_size : int;
  bases : int array;  (* per-rank base address of the window region *)
  mutable freed : bool;
  lock_holders : (int * int, bool) Hashtbl.t;
      (* (target, origin) -> exclusive: live per-target locks *)
  lock_waiters : (int, lock_request Queue.t) Hashtbl.t;  (* per target *)
}

(* One intra-rank thread: an effect-handler fiber sharing the rank's
   address space, MPI state and simulated clock, with its own intra-rank
   vector clock. The clock ticks only at synchronisation points
   (spawn/join/signal/wait), so in a single-threaded rank every access
   carries the same virgin stamp — the thread-oblivious degenerate
   case. *)
type thread_state = {
  tid : int;
  mutable tclock : Vclock.t;
  mutable tview : (int * int) list;  (* cached Vclock.components tclock *)
  mutable town : int;  (* cached own component of tclock *)
  mutable t_done : bool;
  mutable joiners : (int * continuation) list;  (* threads blocked joining this one *)
}

(* A counting semaphore used for task-style signal/wait ordering inside
   one rank. The slot accumulates the merged clock of every signaller so
   a released waiter observes all of them. *)
type signal_slot = {
  mutable sig_count : int;
  mutable sig_clock : Vclock.t;
  sig_waiters : (int * continuation) Queue.t;
}

(* Every access interval inside [c_lo, c_hi] (one allocation) classifies
   as the other fields say; its window is [c_win] when [c_win_known], else
   the window fold decides. [no_class] covers nothing. *)
type classification = {
  c_lo : int;
  c_hi : int;
  c_exposed : bool;
  c_on_stack : bool;
  c_win_known : bool;
  c_win : Event.win_id option;
}

let no_class =
  {
    c_lo = max_int;
    c_hi = min_int;
    c_exposed = false;
    c_on_stack = false;
    c_win_known = false;
    c_win = None;
  }

type rank_state = {
  rank : int;
  memory : Memory.t;
  mutable clock : float;
  mutable epoch_time : float;
  mutable epochs : (Event.win_id * epoch) list;  (* open epochs *)
  mailbox : message Queue.t;
  mutable recv_waiter : (int option * int option * continuation) option;
  mutable done_ : bool;
  threads : (int, thread_state) Hashtbl.t;
  mutable next_tid : int;
  mutable live_threads : int;
  signals : (int, signal_slot) Hashtbl.t;
  mutable cached : classification;  (* last hit; see [classify] *)
}

(* A collective in progress: ranks that arrived, their payloads and
   continuations; released when the last rank arrives. *)
type gather = { mutable arrived : (int * int64 * continuation) list }

type scheduler = {
  nprocs : int;
  config : Config.t;
  observer : Event.observer;
  rng : Rma_util.Prng.t;
  ranks : rank_state array;
  windows : (Event.win_id, window) Hashtbl.t;
  mutable next_win : Event.win_id;
  mutable seq : int;
  mutable barrier_state : gather;
  mutable allreduce_state : gather;
  mutable win_create_state : (int * int * int64 * continuation) list;
      (* per arrived rank: rank, window base, window size as [int64], continuation *)
  mutable win_free_state : gather;
  fence_states : (Event.win_id, gather) Hashtbl.t;
  runnable : (unit -> unit) Run_queue.t;
  mutable current : int;  (* rank whose fiber is executing *)
  mutable pending_request : (int * int * request * continuation) option;
      (* rank, thread, request, continuation *)
  mutable events_emitted : int;
  mutable accesses_emitted : int;
  mutable threads_spawned : int;
  mutable live : int;  (* ranks not yet finished *)
  interleave : Rma_util.Prng.t;
      (* Drives only the runnable-fiber pick. Physically equal to [rng]
         unless an explicit interleave seed decouples scheduling choices
         from the data-level coin flips. *)
}

let fresh_gather () = { arrived = [] }

(* ------------------------------------------------------------------ *)
(* Event emission                                                       *)
(* ------------------------------------------------------------------ *)

let obs_observer_seconds =
  Obs.histogram ~help:"Wall time of one observer call (detector work per event)"
    "sim.observer_seconds"

let obs_protocol_cost =
  Obs.histogram ~help:"Simulated protocol cost reported by the observer per event"
    "sim.protocol_cost_seconds"

let obs_messages = Obs.counter ~help:"Point-to-point messages sent" "sim.messages_sent"

let obs_collectives =
  Obs.counter ~help:"Collective releases (barrier, allreduce, fence)" "sim.collective_releases"

let obs_rma_ops = Obs.counter ~help:"One-sided operations issued (put/get/accumulate)" "sim.rma_ops"

(* The observer's real computational work is measured and charged to the
   triggering rank's simulated clock (scaled), together with whatever
   simulated protocol cost the observer reports. This is how detector
   overhead becomes visible in the Figure 10-12 metrics. Self-timed
   observers ([analysis_self_timed]) fold their own modelled analysis
   seconds into [protocol_cost]; charging the inline wall time too would
   double-bill them. When neither Obs nor the charge needs the
   wall time, it is not read: a [+. 0.0] charge changes no clock. *)
let dispatch s ~charge_to event =
  s.events_emitted <- s.events_emitted + 1;
  let rk = s.ranks.(charge_to) in
  let cfg = s.config in
  let charges_wall =
    cfg.Config.analysis_overhead_scale <> 0.0 && not cfg.Config.analysis_self_timed
  in
  if charges_wall || Obs.is_enabled () then begin
    let t0 = Rma_util.Timer.now () in
    let protocol_cost = s.observer event in
    let wall = Rma_util.Timer.now () -. t0 in
    Obs.observe obs_observer_seconds wall;
    Obs.observe obs_protocol_cost protocol_cost;
    let wall_charge = if charges_wall then wall *. cfg.Config.analysis_overhead_scale else 0.0 in
    rk.clock <- rk.clock +. wall_charge +. protocol_cost
  end
  else rk.clock <- rk.clock +. s.observer event

let next_seq s =
  s.seq <- s.seq + 1;
  s.seq

(* ------------------------------------------------------------------ *)
(* Intra-rank threads                                                   *)
(* ------------------------------------------------------------------ *)

let refresh_thread_caches ~rank th =
  th.tview <- Vclock.components th.tclock;
  th.town <- Vclock.get th.tclock (Vclock.rt_key ~rank ~thread:th.tid)

let make_thread ~rank ~tid tclock =
  let th = { tid; tclock; tview = []; town = 0; t_done = false; joiners = [] } in
  refresh_thread_caches ~rank th;
  th

let thread_of rk tid =
  match Hashtbl.find_opt rk.threads tid with
  | Some th -> th
  | None -> raise (Mpi_error (Printf.sprintf "rank %d: unknown thread %d" rk.rank tid))

let thread_info_of (th : thread_state) =
  { Access.tid = th.tid; tstamp = th.town; tview = th.tview }

(* Joiner merges the joined thread's final clock, then ticks its own
   component: subsequent accesses are ordered after everything the
   joined thread did. *)
let absorb_into ~rank joiner other_clock =
  joiner.tclock <-
    Vclock.tick (Vclock.merge joiner.tclock other_clock) (Vclock.rt_key ~rank ~thread:joiner.tid);
  refresh_thread_caches ~rank joiner

let signal_slot_of rk sig_id =
  match Hashtbl.find_opt rk.signals sig_id with
  | Some slot -> slot
  | None ->
      let slot = { sig_count = 0; sig_clock = Vclock.empty; sig_waiters = Queue.create () } in
      Hashtbl.replace rk.signals sig_id slot;
      slot

let window_of_rank_region s rank iv =
  (* The window (if any) whose region on [rank] contains the interval. *)
  Hashtbl.fold
    (fun id w acc ->
      match acc with
      | Some _ -> acc
      | None ->
          if w.freed then None
          else begin
            let base = w.bases.(rank) in
            let region = Interval.of_range ~addr:base ~len:w.win_size in
            if Interval.overlaps iv region then Some id else None
          end)
    s.windows None

let covers c (iv : Interval.t) = c.c_lo <= iv.lo && iv.hi <= c.c_hi
let invalidate_caches s = Array.iter (fun rk -> rk.cached <- no_class) s.ranks

(* What the window fold answers for every interval inside [lo, hi]: [-1]
   (no live window overlaps), [id] (exactly one covers it) or [-2] (it
   depends on the interval; also for size-0 windows, on which it raises). *)
let window_answer s rank lo hi =
  Hashtbl.fold
    (fun id w acc ->
      let base = w.bases.(rank) in
      if w.freed || (w.win_size > 0 && (hi < base || base + w.win_size <= lo)) then acc
      else if acc = -1 && w.win_size > 0 && base <= lo && hi < base + w.win_size then id
      else -2)
    s.windows (-1)

(* Fills the cache from the allocation A holding [iv] (DESIGN.md §19).
   [alloc] need not invalidate: a new allocation is disjoint from A. *)
let classify s rk (iv : Interval.t) =
  covers rk.cached iv
  ||
  match Memory.allocation_at rk.memory iv.lo with
  | Some al when iv.hi < al.addr + al.len ->
      let lo = al.addr and hi = al.addr + al.len - 1 in
      let w = window_answer s rk.rank lo hi in
      rk.cached <-
        {
          c_lo = lo;
          c_hi = hi;
          c_exposed = al.exposed;
          c_on_stack = al.storage = Memory.Stack;
          c_win_known = w <> -2;
          c_win = (if w >= 0 then Some w else None);
        };
      true
  | _ -> false

let emit_access s ~space ~issuer ~thread ~interval ~kind ~win ~loc =
  s.accesses_emitted <- s.accesses_emitted + 1;
  let rk = s.ranks.(space) in
  let is_rma = Access_kind.is_rma kind in
  (* RMA accesses carry their window and are always relevant; they read
     the cache only for [on_stack], and never fill it. *)
  let hit = if is_rma then covers rk.cached interval else classify s rk interval in
  let c = rk.cached and mem = rk.memory in
  let win =
    if Option.is_some win then win
    else if hit && c.c_win_known then c.c_win
    else window_of_rank_region s space interval
  in
  let relevant =
    is_rma || Option.is_some win
    || if hit then c.c_exposed else Memory.interval_exposed mem interval
  in
  let on_stack = if hit then c.c_on_stack else Memory.interval_on_stack mem interval in
  let access = Access.make_threaded ~thread ~interval ~kind ~issuer ~seq:(next_seq s) ~debug:loc in
  let ev =
    Event.Access
      { Event.space; access; win; relevant; on_stack; sim_time = s.ranks.(issuer).clock }
  in
  dispatch s ~charge_to:issuer ev

(* ------------------------------------------------------------------ *)
(* Continuation plumbing                                                *)
(* ------------------------------------------------------------------ *)

let resume s rank k reply =
  Run_queue.add s.runnable
    (fun () ->
      s.current <- rank;
      Effect.Deep.continue k reply)

let resume_error s rank k msg =
  Run_queue.add s.runnable
    (fun () ->
      s.current <- rank;
      Effect.Deep.discontinue k (Mpi_error msg))

(* ------------------------------------------------------------------ *)
(* Request handling                                                     *)
(* ------------------------------------------------------------------ *)

let get_window s id =
  match Hashtbl.find_opt s.windows id with
  | Some w when not w.freed -> w
  | Some _ -> raise (Mpi_error (Printf.sprintf "window %d already freed" id))
  | None -> raise (Mpi_error (Printf.sprintf "unknown window %d" id))

let find_epoch rk win = List.assoc_opt win rk.epochs

let require_epoch rk win =
  match find_epoch rk win with
  | Some e -> e
  | None ->
      raise
        (Mpi_error
           (Printf.sprintf "rank %d: RMA operation on window %d outside an epoch" rk.rank win))

let message_matches ~src ~tag (m : message) =
  (match src with None -> true | Some s -> s = m.src)
  && match tag with None -> true | Some t -> t = m.tag

let try_deliver s rank =
  let rk = s.ranks.(rank) in
  match rk.recv_waiter with
  | None -> ()
  | Some (src, tag, k) ->
      (* Find the first matching message in arrival order. *)
      let found = ref None in
      let rest = Queue.create () in
      Queue.iter
        (fun m ->
          if !found = None && message_matches ~src ~tag m then found := Some m
          else Queue.add m rest)
        rk.mailbox;
      (match !found with
      | None -> ()
      | Some m ->
          Queue.clear rk.mailbox;
          Queue.transfer rest rk.mailbox;
          rk.recv_waiter <- None;
          rk.clock <-
            Float.max rk.clock
              (m.sent_at +. Config.message_cost s.config ~bytes_count:(Bytes.length m.data));
          resume s rank k (RMsg m))

let apply_pending s rk epoch ~only_target =
  let applied, kept =
    List.partition
      (fun p -> match only_target with None -> true | Some t -> p.target = t)
      epoch.pending
  in
  (* Completion order of one-sided operations is unspecified within an
     epoch: apply in a seeded-random order. *)
  let arr = Array.of_list applied in
  Rma_util.Prng.shuffle_in_place s.rng arr;
  Array.iter (fun p -> p.apply ()) arr;
  let latest = Array.fold_left (fun acc p -> Float.max acc p.completion) rk.clock arr in
  rk.clock <- latest;
  epoch.pending <- kept


(* Per-target passive locks: grant immediately when compatible, park the
   requester otherwise. A per-target lock also opens (or references) a
   Per_target epoch at the origin so one-sided calls are legal. *)
let lock_compatible w ~target ~exclusive =
  let holders = Hashtbl.fold (fun (t, _) excl acc -> if t = target then excl :: acc else acc) w.lock_holders [] in
  match holders with
  | [] -> true
  | _ when exclusive -> false
  | holders -> not (List.exists (fun e -> e) holders)

let open_per_target_epoch s rk win =
  match find_epoch rk win with
  | Some epoch ->
      if epoch.kind <> Per_target then
        raise
          (Mpi_error
             (Printf.sprintf "rank %d: per-target lock while another epoch is open on window %d"
                rk.rank win));
      epoch.lock_count <- epoch.lock_count + 1
  | None ->
      rk.clock <- rk.clock +. s.config.Config.alpha_sync;
      rk.epochs <-
        (win, { opened_at = rk.clock; kind = Per_target; lock_count = 1; pending = [] })
        :: rk.epochs;
      dispatch s ~charge_to:rk.rank (Event.Epoch_opened { win; rank = rk.rank; sim_time = rk.clock })

let grant_lock s w win ~origin ~target ~exclusive k =
  Hashtbl.replace w.lock_holders (target, origin) exclusive;
  let rk = s.ranks.(origin) in
  open_per_target_epoch s rk win;
  resume s origin k RUnit

let release_waiters s w win ~target =
  match Hashtbl.find_opt w.lock_waiters target with
  | None -> ()
  | Some q ->
      (* Grant the head (and, for shared requests, every following shared
         request) as far as compatibility allows. *)
      let rec grant_front () =
        match Queue.peek_opt q with
        | Some r when lock_compatible w ~target ~exclusive:r.l_exclusive ->
            ignore (Queue.pop q);
            grant_lock s w win ~origin:r.l_origin ~target ~exclusive:r.l_exclusive r.l_k;
            if not r.l_exclusive then grant_front ()
        | _ -> ()
      in
      grant_front ()

let reduce_combine ~as_float op a b =
  if as_float then begin
    let fa = Int64.float_of_bits a and fb = Int64.float_of_bits b in
    let r = match op with Sum -> fa +. fb | Max -> Float.max fa fb | Min -> Float.min fa fb in
    Int64.bits_of_float r
  end
  else
    match op with
    | Sum -> Int64.add a b
    | Max -> if Int64.compare a b >= 0 then a else b
    | Min -> if Int64.compare a b <= 0 then a else b

let release_gather s gather ~cost ~value =
  let members = gather.arrived in
  let latest = List.fold_left (fun acc (r, _, _) -> Float.max acc s.ranks.(r).clock) 0.0 members in
  List.iter
    (fun (r, _, k) ->
      s.ranks.(r).clock <- latest +. cost;
      resume s r k (value r))
    members

(* One fiber = one intra-rank thread. The effect handler parks the
   thread's request for the trampoline; the return continuation retires
   the thread, releases its joiners and — when it was the rank's last
   live thread — finishes the rank. With one thread per rank this is
   exactly the historical per-rank fiber. *)
let spawn_fiber s rank tid program =
  let handler =
    {
      Effect.Deep.retc =
        (fun () ->
          let rk = s.ranks.(rank) in
          let th = thread_of rk tid in
          th.t_done <- true;
          rk.live_threads <- rk.live_threads - 1;
          let joiners = List.rev th.joiners in
          th.joiners <- [];
          List.iter
            (fun (jtid, jk) ->
              absorb_into ~rank (thread_of rk jtid) th.tclock;
              resume s rank jk RUnit)
            joiners;
          if rk.live_threads = 0 then begin
            rk.done_ <- true;
            s.live <- s.live - 1;
            dispatch s ~charge_to:rank (Event.Finished { rank; sim_time = rk.clock })
          end);
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Op req ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  s.pending_request <- Some (rank, tid, req, k))
          | _ -> None);
    }
  in
  Run_queue.add s.runnable
    (fun () ->
      s.current <- rank;
      Effect.Deep.match_with program () handler)

let no_double_gather ~what rank present =
  if present then
    raise
      (Mpi_error
         (Printf.sprintf "rank %d: concurrent %s from two threads of the same rank" rank what))

let handle_request s rank tid req k =
  let rk = s.ranks.(rank) in
  let th = thread_of rk tid in
  let tinfo = thread_info_of th in
  let cfg = s.config in
  match req with
  | R_rank -> resume s rank k (RInt rank)
  | R_size -> resume s rank k (RInt s.nprocs)
  | R_compute c ->
      rk.clock <- rk.clock +. Float.max 0.0 c;
      resume s rank k RUnit
  | R_alloc { size; label; storage; exposed } ->
      let addr = Memory.alloc rk.memory ~label ~storage ~exposed size in
      resume s rank k (RInt addr)
  | R_load { addr; len; loc } ->
      let data = Memory.read rk.memory ~addr ~len in
      emit_access s ~space:rank ~issuer:rank ~thread:tinfo
        ~interval:(Interval.of_range ~addr ~len)
        ~kind:Access_kind.Local_read ~win:None ~loc;
      resume s rank k (RBytes data)
  | R_store { addr; data; loc } ->
      Memory.write rk.memory ~addr ~data;
      emit_access s ~space:rank ~issuer:rank ~thread:tinfo
        ~interval:(Interval.of_range ~addr ~len:(Bytes.length data))
        ~kind:Access_kind.Local_write ~win:None ~loc;
      resume s rank k RUnit
  | R_win_create { base; size } ->
      no_double_gather ~what:"win_create" rank
        (List.exists (fun (r, _, _, _) -> r = rank) s.win_create_state);
      s.win_create_state <- (rank, base, Int64.of_int size, k) :: s.win_create_state;
      if List.length s.win_create_state = s.nprocs then begin
        let members = s.win_create_state in
        s.win_create_state <- [];
        let sizes =
          List.sort_uniq Int64.compare (List.map (fun (_, _, sz, _) -> sz) members)
        in
        (match sizes with
        | [ _ ] -> ()
        | _ -> raise (Mpi_error "win_create: ranks disagree on window size"));
        let win_size = size in
        let bases = Array.make s.nprocs 0 in
        List.iter (fun (r, b, _, _) -> bases.(r) <- b) members;
        let id = s.next_win in
        s.next_win <- id + 1;
        Hashtbl.replace s.windows id
          {
            win_size;
            bases;
            freed = false;
            lock_holders = Hashtbl.create 8;
            lock_waiters = Hashtbl.create 8;
          };
        invalidate_caches s;
        let latest =
          List.fold_left (fun acc (r, _, _, _) -> Float.max acc s.ranks.(r).clock) 0.0 members
        in
        let cost = Config.collective_cost cfg ~nprocs:s.nprocs ~bytes_count:16 in
        List.iter
          (fun (r, _, _, k) ->
            s.ranks.(r).clock <- latest +. cost;
            dispatch s ~charge_to:r
              (Event.Win_created
                 { win = id; rank = r; base = bases.(r); size = win_size; sim_time = s.ranks.(r).clock });
            resume s r k (RInt id))
          members
      end
  (* Every close path accrues epoch_time AFTER the Epoch_closed
     dispatch: the close-side protocol work the observer charges (the
     end-of-epoch MPI_Reduce, a parallel analyzer's barrier drain) is
     part of the epoch being closed, not of the gap to the next one. *)
  | R_win_free { win } ->
      let w = get_window s win in
      (match find_epoch rk win with
      | Some epoch when epoch.kind = Fence && epoch.pending = [] ->
          (* A trailing fence leaves an empty epoch open; close it
             implicitly, as MPI_Win_free does after a final fence. *)
          rk.epochs <- List.remove_assoc win rk.epochs;
          dispatch s ~charge_to:rank (Event.Epoch_closed { win; rank; sim_time = rk.clock });
          rk.epoch_time <- rk.epoch_time +. (rk.clock -. epoch.opened_at)
      | Some _ ->
          raise
            (Mpi_error (Printf.sprintf "rank %d: win_free with an open epoch on window %d" rank win))
      | None -> ());
      no_double_gather ~what:"win_free" rank
        (List.exists (fun (r, _, _) -> r = rank) s.win_free_state.arrived);
      s.win_free_state.arrived <- (rank, Int64.of_int win, k) :: s.win_free_state.arrived;
      if List.length s.win_free_state.arrived = s.nprocs then begin
        let ids =
          List.sort_uniq Int64.compare (List.map (fun (_, v, _) -> v) s.win_free_state.arrived)
        in
        (match ids with
        | [ _ ] -> ()
        | _ -> raise (Mpi_error "win_free: ranks freeing different windows"));
        w.freed <- true;
        invalidate_caches s;
        let gather = s.win_free_state in
        s.win_free_state <- fresh_gather ();
        List.iter
          (fun (r, _, _) ->
            dispatch s ~charge_to:r (Event.Win_freed { win; rank = r; sim_time = s.ranks.(r).clock }))
          gather.arrived;
        release_gather s gather
          ~cost:(Config.collective_cost cfg ~nprocs:s.nprocs ~bytes_count:8)
          ~value:(fun _ -> RUnit)
      end
  | R_lock_all { win; loc = _ } ->
      ignore (get_window s win);
      if find_epoch rk win <> None then
        raise (Mpi_error (Printf.sprintf "rank %d: nested lock_all on window %d" rank win));
      rk.clock <- rk.clock +. cfg.Config.alpha_sync;
      rk.epochs <- (win, { opened_at = rk.clock; kind = Lock_all; lock_count = 0; pending = [] }) :: rk.epochs;
      dispatch s ~charge_to:rank (Event.Epoch_opened { win; rank; sim_time = rk.clock });
      resume s rank k RUnit
  | R_unlock_all { win; loc = _ } ->
      ignore (get_window s win);
      let epoch = require_epoch rk win in
      apply_pending s rk epoch ~only_target:None;
      rk.clock <- rk.clock +. cfg.Config.alpha_sync;
      rk.epochs <- List.remove_assoc win rk.epochs;
      dispatch s ~charge_to:rank (Event.Epoch_closed { win; rank; sim_time = rk.clock });
      rk.epoch_time <- rk.epoch_time +. (rk.clock -. epoch.opened_at);
      resume s rank k RUnit
  | R_flush_all { win; loc = _ } ->
      ignore (get_window s win);
      let epoch = require_epoch rk win in
      apply_pending s rk epoch ~only_target:None;
      dispatch s ~charge_to:rank (Event.Flushed { win; rank; target = None; sim_time = rk.clock });
      resume s rank k RUnit
  | R_lock { win; target; exclusive; loc = _ } ->
      let w = get_window s win in
      if target < 0 || target >= s.nprocs then
        raise (Mpi_error (Printf.sprintf "rank %d: lock target %d out of range" rank target));
      if Hashtbl.mem w.lock_holders (target, rank) then
        raise (Mpi_error (Printf.sprintf "rank %d: already holds a lock on window %d target %d" rank win target));
      if lock_compatible w ~target ~exclusive then
        grant_lock s w win ~origin:rank ~target ~exclusive k
      else begin
        let q =
          match Hashtbl.find_opt w.lock_waiters target with
          | Some q -> q
          | None ->
              let q = Queue.create () in
              Hashtbl.replace w.lock_waiters target q;
              q
        in
        Queue.add { l_origin = rank; l_exclusive = exclusive; l_k = k } q
      end
  | R_unlock { win; target; loc = _ } ->
      let w = get_window s win in
      if not (Hashtbl.mem w.lock_holders (target, rank)) then
        raise
          (Mpi_error (Printf.sprintf "rank %d: unlock without a lock on window %d target %d" rank win target));
      let epoch = require_epoch rk win in
      (* Unlock completes the caller's operations towards the target. *)
      apply_pending s rk epoch ~only_target:(Some target);
      Hashtbl.remove w.lock_holders (target, rank);
      epoch.lock_count <- epoch.lock_count - 1;
      if epoch.lock_count <= 0 then begin
        apply_pending s rk epoch ~only_target:None;
        rk.clock <- rk.clock +. cfg.Config.alpha_sync;
        rk.epochs <- List.remove_assoc win rk.epochs;
        dispatch s ~charge_to:rank (Event.Epoch_closed { win; rank; sim_time = rk.clock });
        rk.epoch_time <- rk.epoch_time +. (rk.clock -. epoch.opened_at)
      end;
      release_waiters s w win ~target;
      resume s rank k RUnit
  | R_fence { win; loc = _ } ->
      ignore (get_window s win);
      let gather =
        match Hashtbl.find_opt s.fence_states win with
        | Some g -> g
        | None ->
            let g = fresh_gather () in
            Hashtbl.replace s.fence_states win g;
            g
      in
      no_double_gather ~what:"win_fence" rank
        (List.exists (fun (r, _, _) -> r = rank) gather.arrived);
      gather.arrived <- (rank, 0L, k) :: gather.arrived;
      if List.length gather.arrived = s.nprocs then begin
        Obs.incr obs_collectives;
        Hashtbl.remove s.fence_states win;
        (* MPI_Win_fence is collective: it completes every outstanding
           one-sided operation on the window and separates epochs. *)
        List.iter
          (fun (r, _, _) ->
            let rk = s.ranks.(r) in
            match find_epoch rk win with
            | Some epoch ->
                apply_pending s rk epoch ~only_target:None;
                rk.clock <- rk.clock +. cfg.Config.alpha_sync;
                rk.epochs <- List.remove_assoc win rk.epochs;
                dispatch s ~charge_to:r (Event.Epoch_closed { win; rank = r; sim_time = rk.clock });
                rk.epoch_time <- rk.epoch_time +. (rk.clock -. epoch.opened_at)
            | None -> ())
          gather.arrived;
        let latest =
          List.fold_left (fun acc (r, _, _) -> Float.max acc s.ranks.(r).clock) 0.0 gather.arrived
        in
        let cost = Config.collective_cost cfg ~nprocs:s.nprocs ~bytes_count:0 in
        List.iter
          (fun (r, _, _) ->
            dispatch s ~charge_to:r
              (Event.Collective { kind = Event.Fence; rank = r; sim_time = s.ranks.(r).clock }))
          gather.arrived;
        List.iter
          (fun (r, _, k) ->
            let rk = s.ranks.(r) in
            rk.clock <- latest +. cost;
            rk.epochs <- (win, { opened_at = rk.clock; kind = Fence; lock_count = 0; pending = [] }) :: rk.epochs;
            dispatch s ~charge_to:r (Event.Epoch_opened { win; rank = r; sim_time = rk.clock });
            resume s r k RUnit)
          gather.arrived
      end
  | R_flush { win; target; loc = _ } ->
      ignore (get_window s win);
      let epoch = require_epoch rk win in
      apply_pending s rk epoch ~only_target:(Some target);
      dispatch s ~charge_to:rank
        (Event.Flushed { win; rank; target = Some target; sim_time = rk.clock });
      resume s rank k RUnit
  | R_put { win; target; target_disp; origin_addr; len; loc } ->
      let w = get_window s win in
      let epoch = require_epoch rk win in
      if target < 0 || target >= s.nprocs then
        raise (Mpi_error (Printf.sprintf "rank %d: put target %d out of range" rank target));
      if target_disp < 0 || target_disp + len > w.win_size then
        raise
          (Mpi_error
             (Printf.sprintf "rank %d: put displacement [%d, %d) outside window of size %d" rank
                target_disp (target_disp + len) w.win_size));
      Obs.incr obs_rma_ops;
      rk.clock <- rk.clock +. cfg.Config.alpha_rma;
      let target_addr = w.bases.(target) + target_disp in
      (* Origin side: the Put reads the origin buffer (RMA_Read); target
         side: it writes the window (RMA_Write). Both recorded eagerly,
         as RMA-Analyzer's notification sends do. *)
      emit_access s ~space:rank ~issuer:rank ~thread:tinfo
        ~interval:(Interval.of_range ~addr:origin_addr ~len)
        ~kind:Access_kind.Rma_read ~win:(Some win) ~loc;
      emit_access s ~space:target ~issuer:rank ~thread:tinfo
        ~interval:(Interval.of_range ~addr:target_addr ~len)
        ~kind:Access_kind.Rma_write ~win:(Some win) ~loc;
      let origin_mem = rk.memory and target_mem = s.ranks.(target).memory in
      let apply () =
        Memory.write target_mem ~addr:target_addr ~data:(Memory.read origin_mem ~addr:origin_addr ~len)
      in
      let completion = rk.clock +. Config.message_cost cfg ~bytes_count:len in
      if Rma_util.Prng.bernoulli s.rng ~p:cfg.Config.apply_early_probability then apply ()
      else epoch.pending <- { apply; completion; target } :: epoch.pending;
      resume s rank k RUnit
  | R_get { win; target; target_disp; origin_addr; len; loc } ->
      let w = get_window s win in
      let epoch = require_epoch rk win in
      if target < 0 || target >= s.nprocs then
        raise (Mpi_error (Printf.sprintf "rank %d: get target %d out of range" rank target));
      if target_disp < 0 || target_disp + len > w.win_size then
        raise
          (Mpi_error
             (Printf.sprintf "rank %d: get displacement [%d, %d) outside window of size %d" rank
                target_disp (target_disp + len) w.win_size));
      Obs.incr obs_rma_ops;
      rk.clock <- rk.clock +. cfg.Config.alpha_rma;
      let target_addr = w.bases.(target) + target_disp in
      (* Origin side: the Get writes the origin buffer (RMA_Write);
         target side: it reads the window (RMA_Read). *)
      emit_access s ~space:rank ~issuer:rank ~thread:tinfo
        ~interval:(Interval.of_range ~addr:origin_addr ~len)
        ~kind:Access_kind.Rma_write ~win:(Some win) ~loc;
      emit_access s ~space:target ~issuer:rank ~thread:tinfo
        ~interval:(Interval.of_range ~addr:target_addr ~len)
        ~kind:Access_kind.Rma_read ~win:(Some win) ~loc;
      let origin_mem = rk.memory and target_mem = s.ranks.(target).memory in
      let apply () =
        Memory.write origin_mem ~addr:origin_addr ~data:(Memory.read target_mem ~addr:target_addr ~len)
      in
      let completion = rk.clock +. Config.message_cost cfg ~bytes_count:len in
      if Rma_util.Prng.bernoulli s.rng ~p:cfg.Config.apply_early_probability then apply ()
      else epoch.pending <- { apply; completion; target } :: epoch.pending;
      resume s rank k RUnit
  | R_accumulate { win; target; target_disp; origin_addr; len; op; loc } ->
      let w = get_window s win in
      let epoch = require_epoch rk win in
      if target < 0 || target >= s.nprocs then
        raise (Mpi_error (Printf.sprintf "rank %d: accumulate target %d out of range" rank target));
      if target_disp < 0 || target_disp + len > w.win_size then
        raise
          (Mpi_error
             (Printf.sprintf "rank %d: accumulate displacement [%d, %d) outside window of size %d"
                rank target_disp (target_disp + len) w.win_size));
      if len mod 8 <> 0 then
        raise (Mpi_error (Printf.sprintf "rank %d: accumulate length %d not a multiple of 8" rank len));
      Obs.incr obs_rma_ops;
      rk.clock <- rk.clock +. cfg.Config.alpha_rma;
      let target_addr = w.bases.(target) + target_disp in
      emit_access s ~space:rank ~issuer:rank ~thread:tinfo
        ~interval:(Interval.of_range ~addr:origin_addr ~len)
        ~kind:Access_kind.Rma_read ~win:(Some win) ~loc;
      emit_access s ~space:target ~issuer:rank ~thread:tinfo
        ~interval:(Interval.of_range ~addr:target_addr ~len)
        ~kind:Access_kind.Rma_accumulate ~win:(Some win) ~loc;
      let origin_mem = rk.memory and target_mem = s.ranks.(target).memory in
      let apply () =
        (* Element-atomic read-modify-write over 8-byte datatypes — the
           §2.1 atomicity property holds by construction (one thunk). *)
        for e = 0 to (len / 8) - 1 do
          let contribution = Memory.read_int64 origin_mem ~addr:(origin_addr + (8 * e)) in
          let current = Memory.read_int64 target_mem ~addr:(target_addr + (8 * e)) in
          Memory.write_int64 target_mem ~addr:(target_addr + (8 * e))
            (reduce_combine ~as_float:false op current contribution)
        done
      in
      let completion = rk.clock +. Config.message_cost cfg ~bytes_count:len in
      if Rma_util.Prng.bernoulli s.rng ~p:cfg.Config.apply_early_probability then apply ()
      else epoch.pending <- { apply; completion; target } :: epoch.pending;
      resume s rank k RUnit
  | R_send { dst; tag; data } ->
      if dst < 0 || dst >= s.nprocs then
        raise (Mpi_error (Printf.sprintf "rank %d: send destination %d out of range" rank dst));
      Obs.incr obs_messages;
      rk.clock <- rk.clock +. cfg.Config.alpha_msg;
      Queue.add { src = rank; tag; data = Bytes.copy data; sent_at = rk.clock } s.ranks.(dst).mailbox;
      try_deliver s dst;
      resume s rank k RUnit
  | R_recv { src; tag } ->
      if rk.recv_waiter <> None then
        raise (Mpi_error (Printf.sprintf "rank %d: concurrent recv" rank));
      rk.recv_waiter <- Some (src, tag, k);
      try_deliver s rank
  | R_barrier ->
      no_double_gather ~what:"barrier" rank
        (List.exists (fun (r, _, _) -> r = rank) s.barrier_state.arrived);
      s.barrier_state.arrived <- (rank, 0L, k) :: s.barrier_state.arrived;
      if List.length s.barrier_state.arrived = s.nprocs then begin
        Obs.incr obs_collectives;
        let gather = s.barrier_state in
        s.barrier_state <- fresh_gather ();
        List.iter
          (fun (r, _, _) ->
            dispatch s ~charge_to:r
              (Event.Collective { kind = Event.Barrier; rank = r; sim_time = s.ranks.(r).clock }))
          gather.arrived;
        release_gather s gather
          ~cost:(Config.collective_cost cfg ~nprocs:s.nprocs ~bytes_count:0)
          ~value:(fun _ -> RUnit)
      end
  | R_allreduce { value; op; as_float } ->
      no_double_gather ~what:"allreduce" rank
        (List.exists (fun (r, _, _) -> r = rank) s.allreduce_state.arrived);
      s.allreduce_state.arrived <- (rank, value, k) :: s.allreduce_state.arrived;
      if List.length s.allreduce_state.arrived = s.nprocs then begin
        Obs.incr obs_collectives;
        let gather = s.allreduce_state in
        s.allreduce_state <- fresh_gather ();
        let combined =
          (* Combine in rank order so float sums are deterministic. *)
          let sorted = List.sort (fun (a, _, _) (b, _, _) -> compare a b) gather.arrived in
          match sorted with
          | [] -> assert false
          | (_, v0, _) :: rest ->
              List.fold_left (fun acc (_, v, _) -> reduce_combine ~as_float op acc v) v0 rest
        in
        List.iter
          (fun (r, _, _) ->
            dispatch s ~charge_to:r
              (Event.Collective { kind = Event.Allreduce; rank = r; sim_time = s.ranks.(r).clock }))
          gather.arrived;
        release_gather s gather
          ~cost:(Config.collective_cost cfg ~nprocs:s.nprocs ~bytes_count:8)
          ~value:(fun _ -> RI64 combined)
      end
  | R_thread_spawn { body } ->
      if rk.next_tid >= Vclock.threads_per_rank then
        raise
          (Mpi_error
             (Printf.sprintf "rank %d: thread limit %d reached" rank Vclock.threads_per_rank));
      let child_tid = rk.next_tid in
      rk.next_tid <- child_tid + 1;
      (* The child is born with the parent's clock plus its own birth
         tick; the parent ticks its own component so accesses after the
         spawn are unordered with the child's. *)
      let child =
        make_thread ~rank ~tid:child_tid
          (Vclock.tick th.tclock (Vclock.rt_key ~rank ~thread:child_tid))
      in
      th.tclock <- Vclock.tick th.tclock (Vclock.rt_key ~rank ~thread:tid);
      refresh_thread_caches ~rank th;
      Hashtbl.replace rk.threads child_tid child;
      rk.live_threads <- rk.live_threads + 1;
      s.threads_spawned <- s.threads_spawned + 1;
      spawn_fiber s rank child_tid body;
      resume s rank k (RInt child_tid)
  | R_thread_join { tid = target } ->
      if target = tid then
        raise (Mpi_error (Printf.sprintf "rank %d: thread %d joining itself" rank tid));
      let tgt = thread_of rk target in
      if tgt.t_done then begin
        absorb_into ~rank th tgt.tclock;
        resume s rank k RUnit
      end
      else tgt.joiners <- (tid, k) :: tgt.joiners
  | R_signal { sig_id } ->
      let slot = signal_slot_of rk sig_id in
      (* Publish the signaller's clock before its own post-signal tick:
         the waiter observes everything up to the signal, nothing
         after. *)
      slot.sig_clock <- Vclock.merge slot.sig_clock th.tclock;
      th.tclock <- Vclock.tick th.tclock (Vclock.rt_key ~rank ~thread:tid);
      refresh_thread_caches ~rank th;
      (match Queue.take_opt slot.sig_waiters with
      | Some (wtid, wk) ->
          absorb_into ~rank (thread_of rk wtid) slot.sig_clock;
          resume s rank wk RUnit
      | None -> slot.sig_count <- slot.sig_count + 1);
      resume s rank k RUnit
  | R_wait { sig_id } ->
      let slot = signal_slot_of rk sig_id in
      if slot.sig_count > 0 then begin
        slot.sig_count <- slot.sig_count - 1;
        absorb_into ~rank th slot.sig_clock;
        resume s rank k RUnit
      end
      else Queue.add (tid, k) slot.sig_waiters

(* ------------------------------------------------------------------ *)
(* The trampoline                                                       *)
(* ------------------------------------------------------------------ *)

let describe_blocked s =
  let blocked = ref [] in
  Array.iter
    (fun rk ->
      if not rk.done_ then begin
        let why =
          if rk.recv_waiter <> None then "waiting in recv"
          else if List.exists (fun (r, _, _) -> r = rk.rank) s.barrier_state.arrived then
            "waiting in barrier"
          else if List.exists (fun (r, _, _) -> r = rk.rank) s.allreduce_state.arrived then
            "waiting in allreduce"
          else if List.exists (fun (r, _, _, _) -> r = rk.rank) s.win_create_state then
            "waiting in win_create"
          else if List.exists (fun (r, _, _) -> r = rk.rank) s.win_free_state.arrived then
            "waiting in win_free"
          else if
            Hashtbl.fold
              (fun _ g acc -> acc || List.exists (fun (r, _, _) -> r = rk.rank) g.arrived)
              s.fence_states false
          then "waiting in win_fence"
          else if
            Hashtbl.fold
              (fun _ w acc ->
                acc
                || Hashtbl.fold
                     (fun _ q acc ->
                       acc
                       || Queue.fold (fun acc r -> acc || r.l_origin = rk.rank) false q)
                     w.lock_waiters acc)
              s.windows false
          then "waiting for a window lock"
          else begin
            let thread_why = ref None in
            Hashtbl.iter
              (fun _ th ->
                List.iter
                  (fun (jtid, _) ->
                    if !thread_why = None then
                      thread_why :=
                        Some
                          (Printf.sprintf "thread %d waiting to join thread %d" jtid th.tid))
                  th.joiners)
              rk.threads;
            Hashtbl.iter
              (fun sig_id slot ->
                Queue.iter
                  (fun (wtid, _) ->
                    if !thread_why = None then
                      thread_why :=
                        Some (Printf.sprintf "thread %d waiting on signal %d" wtid sig_id))
                  slot.sig_waiters)
              rk.signals;
            match !thread_why with Some w -> w | None -> "blocked"
          end
        in
        blocked := Printf.sprintf "rank %d: %s" rk.rank why :: !blocked
      end)
    s.ranks;
  String.concat "; " (List.rev !blocked)

let run ~nprocs ?(seed = 42) ?interleave_seed ?(config = Config.default)
    ?(observer = Event.null_observer) program =
  if nprocs <= 0 then invalid_arg "Runtime.run: nprocs must be positive";
  let rng = Rma_util.Prng.create ~seed in
  (* Without an explicit interleave seed the scheduling picks draw from
     the same stream as the data-level coin flips — physically the same
     PRNG — reproducing the exact pre-hybrid schedules byte for byte. *)
  let interleave =
    match interleave_seed with None -> rng | Some i -> Rma_util.Prng.create ~seed:i
  in
  let s =
    {
      nprocs;
      config;
      observer;
      rng;
      interleave;
      ranks =
        Array.init nprocs (fun rank ->
            {
              rank;
              memory = Memory.create ~size:config.Config.memory_size;
              clock = 0.0;
              epoch_time = 0.0;
              epochs = [];
              mailbox = Queue.create ();
              recv_waiter = None;
              done_ = false;
              threads =
                (let tbl = Hashtbl.create 4 in
                 Hashtbl.replace tbl 0
                   (make_thread ~rank ~tid:0
                      (Vclock.tick Vclock.empty (Vclock.rt_key ~rank ~thread:0)));
                 tbl);
              next_tid = 1;
              live_threads = 1;
              signals = Hashtbl.create 4;
              cached = no_class;
            });
      windows = Hashtbl.create 8;
      next_win = 0;
      seq = 0;
      barrier_state = fresh_gather ();
      allreduce_state = fresh_gather ();
      win_create_state = [];
      win_free_state = fresh_gather ();
      fence_states = Hashtbl.create 4;
      runnable = Run_queue.create ~dummy:ignore;
      current = -1;
      pending_request = None;
      events_emitted = 0;
      accesses_emitted = 0;
      threads_spawned = 0;
      live = nprocs;
    }
  in
  Obs.begin_sim_run ();
  let wall0 = Rma_util.Timer.now () in
  for rank = 0 to nprocs - 1 do
    spawn_fiber s rank 0 program
  done;
  (* Trampoline: run one fiber step, then service the request it left
     behind (if any). Picking a random runnable thunk interleaves ranks
     non-deterministically but reproducibly. *)
  while Run_queue.length s.runnable > 0 do
    let n = Run_queue.length s.runnable in
    let idx = if n <= 1 then 0 else Rma_util.Prng.int s.interleave ~bound:n in
    let step = Run_queue.take s.runnable idx in
    step ();
    match s.pending_request with
    | None -> ()
    | Some (rank, tid, req, k) -> (
        s.pending_request <- None;
        match handle_request s rank tid req k with
        | () -> ()
        | exception Mpi_error msg ->
            (* Deliver interface misuse into the offending rank so its
               program (or the caller) sees a meaningful backtrace. *)
            resume_error s rank k msg)
  done;
  if s.live > 0 then raise (Deadlock (describe_blocked s));
  let clocks = Array.map (fun rk -> rk.clock) s.ranks in
  let wall1 = Rma_util.Timer.now () in
  if Obs.is_enabled () then begin
    (* One wall-clock span for the whole run, and one simulated-time span
       per rank so the trace shows simulated vs wall durations side by
       side. Epoch spans (from the analyzer) nest inside the rank spans. *)
    Obs.emit_span ~cat:"run" ~pid:Obs.wall_pid ~tid:0
      ~t0:(Obs.rel_time wall0) ~t1:(Obs.rel_time wall1)
      ~args:
        [
          ("nprocs", string_of_int nprocs);
          ("events", string_of_int s.events_emitted);
          ("accesses", string_of_int s.accesses_emitted);
        ]
      "Runtime.run";
    Array.iter
      (fun rk ->
        Obs.emit_span ~cat:"rank" ~pid:(Obs.sim_pid ()) ~tid:rk.rank ~t0:0.0 ~t1:rk.clock
          ~args:
            [
              ("sim_seconds", Printf.sprintf "%.9f" rk.clock);
              ("epoch_seconds", Printf.sprintf "%.9f" rk.epoch_time);
              ("wall_seconds_whole_run", Printf.sprintf "%.9f" (wall1 -. wall0));
            ]
          (Printf.sprintf "rank %d (simulated)" rk.rank))
      s.ranks
  end;
  {
    clocks;
    epoch_times = Array.map (fun rk -> rk.epoch_time) s.ranks;
    makespan = Array.fold_left Float.max 0.0 clocks;
    wall_seconds = wall1 -. wall0;
    events_emitted = s.events_emitted;
    accesses_emitted = s.accesses_emitted;
    threads_spawned = s.threads_spawned;
  }
