open Rma_access

type op = Get | Put | Load | Store

type actor = Origin1 | Target | Origin2

type place = Origin_in | Origin_out | Target_in | Target_out

type role = As_local | As_origin_buffer | As_remote_target

type variant = Overlapping | Disjoint

type t = {
  name : string;
  first : op * actor;
  second : op * actor;
  place : place;
  first_role : role;
  second_role : role;
  variant : variant;
  stack_shared : bool;
  racy : bool;
}

let op_name = function Get -> "get" | Put -> "put" | Load -> "load" | Store -> "store"

let actor_rank = function Origin1 -> 0 | Target -> 1 | Origin2 -> 2

let actor_code = function Origin1 -> 'l' | Target -> 't' | Origin2 -> 'r'

let place_name = function
  | Origin_in -> "inwindow_origin"
  | Origin_out -> "outwindow_origin"
  | Target_in -> "inwindow_target"
  | Target_out -> "outwindow_target"

let place_owner_rank = function Origin_in | Origin_out -> 0 | Target_in | Target_out -> 1

let place_in_window = function Origin_in | Target_in -> true | Origin_out | Target_out -> false

let is_rma_op = function Get | Put -> true | Load | Store -> false

(* The unique way an (op, actor) pair can touch a shared location at
   [place], if any. Local accesses need the location in the actor's own
   address space; an RMA call touches it either as its origin buffer
   (location in the issuer's space) or as its remote target (location in
   a window owned by another rank). Origin2 only ever issues RMA calls
   towards a window it does not own (the Figure 3 setting). *)
let role_of ~op ~actor ~place =
  let owner = if place_owner_rank place = 0 then Origin1 else Target in
  match op with
  | Load | Store -> if actor = owner && actor <> Origin2 then Some As_local else None
  | Get | Put ->
      if actor = owner then Some As_origin_buffer
      else if place_in_window place then Some As_remote_target
      else None

let kind_of op role =
  match (op, role) with
  | Load, As_local -> Access_kind.Local_read
  | Store, As_local -> Access_kind.Local_write
  | Get, As_origin_buffer -> Access_kind.Rma_write
  | Get, As_remote_target -> Access_kind.Rma_read
  | Put, As_origin_buffer -> Access_kind.Rma_read
  | Put, As_remote_target -> Access_kind.Rma_write
  | (Load | Store), (As_origin_buffer | As_remote_target) | (Get | Put), As_local ->
      invalid_arg "Scenario.kind_of: inconsistent op/role"

(* The Figure 3 matrix: at least one RMA access and one write on the
   shared location, unordered — program order only protects a local
   access followed by an RMA call of the same process. *)
let ground_truth_racy ~first:(op1, actor1) ~second:(op2, actor2) ~first_role ~second_role =
  let k1 = kind_of op1 first_role and k2 = kind_of op2 second_role in
  Race_rule.conflict_kinds ~order_aware:true ~same_process:(actor1 = actor2) ~first:k1 ~second:k2

(* A safe combination the order-insensitive legacy rule still flags:
   a local access followed by a same-process RMA call on the same
   location. *)
let order_sensitivity_fp base =
  (not base.racy) && base.variant = Overlapping
  &&
  let op1, actor1 = base.first and op2, actor2 = base.second in
  actor1 = actor2
  && (match (op1, op2) with (Load | Store), (Get | Put) -> true | _ -> false)
  && Race_rule.conflict_kinds ~order_aware:false ~same_process:true
       ~first:(kind_of op1 base.first_role) ~second:(kind_of op2 base.second_role)

let involves_local base = base.first_role = As_local || base.second_role = As_local

let ops = [ Get; Put; Load; Store ]
let second_actors = [ Origin1; Target; Origin2 ]
let places = [ Origin_in; Origin_out; Target_in; Target_out ]

(* The 56 base combinations: first operation by Origin1. *)
let base_combinations =
  let scenarios = ref [] in
  List.iter
    (fun place ->
      List.iter
        (fun op1 ->
          match role_of ~op:op1 ~actor:Origin1 ~place with
          | None -> ()
          | Some first_role ->
              List.iter
                (fun actor2 ->
                  List.iter
                    (fun op2 ->
                      match role_of ~op:op2 ~actor:actor2 ~place with
                      | None -> ()
                      | Some second_role ->
                          if is_rma_op op1 || is_rma_op op2 then begin
                            let racy =
                              ground_truth_racy ~first:(op1, Origin1) ~second:(op2, actor2)
                                ~first_role ~second_role
                            in
                            let name =
                              Printf.sprintf "%c%c_%s_%s_%s_%s" (actor_code Origin1)
                                (actor_code actor2) (op_name op1) (op_name op2) (place_name place)
                                (if racy then "race" else "safe")
                            in
                            scenarios :=
                              {
                                name;
                                first = (op1, Origin1);
                                second = (op2, actor2);
                                place;
                                first_role;
                                second_role;
                                variant = Overlapping;
                                stack_shared = place_in_window place;
                                racy;
                              }
                              :: !scenarios
                          end)
                    ops)
                second_actors)
        ops)
    places;
  List.sort (fun a b -> String.compare a.name b.name) !scenarios

(* Three out-of-window racy codes declare their shared buffer as a C
   automatic (stack) array, like the suite's ll_get_load_inwindow
   example; ll_get_load_outwindow_origin_race is kept on the heap
   because Table 2 shows MUST-RMA detecting it. *)
let stack_exception_names =
  let candidates =
    List.filter
      (fun b ->
        b.racy && involves_local b
        && (not (place_in_window b.place))
        && not (String.equal b.name "ll_get_load_outwindow_origin_race"))
      base_combinations
  in
  List.filteri (fun i _ -> i < 3) (List.map (fun b -> b.name) candidates)

let rename suffix base racy =
  (* ..._race/_safe -> ..._<suffix>_<race|safe> *)
  let stem = Filename.remove_extension base.name in
  ignore stem;
  let without =
    match String.rindex_opt base.name '_' with
    | Some i -> String.sub base.name 0 i
    | None -> base.name
  in
  Printf.sprintf "%s_%s_%s" without suffix (if racy then "race" else "safe")

let disjoint_twins =
  (* The paper names the non-overlapping variant of a racy combination
     with a plain _safe suffix (Table 2's ll_get_get_inwindow_origin_safe
     is the safe twin of the racy get/get combination); twins of
     already-safe combinations need an explicit marker to keep names
     unique. *)
  List.map
    (fun b ->
      let name =
        if b.racy then
          match String.rindex_opt b.name '_' with
          | Some i -> String.sub b.name 0 i ^ "_safe"
          | None -> b.name ^ "_safe"
        else rename "disjoint" b false
      in
      { b with name; variant = Disjoint; racy = false })
    base_combinations

let heap_racy_variants =
  (* Storage-variant duplicates of racy codes, mirroring the paper's
     re-runs "when using heap arrays": ten heap duplicates of in-window
     local-access races (detected by MUST-RMA), plus one stack-array
     duplicate of ll_get_load_outwindow_origin_race (missed, like its
     in-window sibling in Table 2). Eleven additions keep the racy total
     at the paper's 47. *)
  let candidates =
    List.filter (fun b -> b.racy && involves_local b && place_in_window b.place) base_combinations
  in
  let heap =
    List.filteri (fun i _ -> i < 10) candidates
    |> List.map (fun b -> { b with name = rename "heap" b true; stack_shared = false })
  in
  let stack =
    List.filter (fun b -> String.equal b.name "ll_get_load_outwindow_origin_race") base_combinations
    |> List.map (fun b -> { b with name = rename "stack" b true; stack_shared = true })
  in
  heap @ stack

let heap_safe_variants =
  (* Heap duplicates of safe codes, excluding the order-sensitivity
     codes so the legacy false-positive count stays at six. 31 bring the
     safe total to the paper's 107. *)
  let candidates =
    List.filter (fun b -> (not b.racy) && not (order_sensitivity_fp b)) base_combinations
    @ disjoint_twins
  in
  List.filteri (fun i _ -> i < 31) candidates
  |> List.map (fun b -> { b with name = rename "heap" b false; stack_shared = false })

let all =
  let with_stack_exceptions =
    List.map
      (fun b ->
        if List.mem b.name stack_exception_names then { b with stack_shared = true } else b)
      base_combinations
  in
  List.sort
    (fun a b -> String.compare a.name b.name)
    (with_stack_exceptions @ disjoint_twins @ heap_racy_variants @ heap_safe_variants)

let count_total = List.length all
let count_racy = List.length (List.filter (fun s -> s.racy) all)
let count_safe = count_total - count_racy

let expected_legacy_false_positives = List.filter order_sensitivity_fp all

let find name = List.find_opt (fun s -> String.equal s.name name) all

(* ------------------------------------------------------------------ *)
(* RMARaceBench-shaped kernels                                          *)
(* ------------------------------------------------------------------ *)

module Kernel = struct
  module Mpi = Mpi_sim.Mpi

  type sync = Fence | Lock_all | Flush_only

  type locality = Remote | Local_buffer

  type t = {
    k_name : string;
    k_sync : sync;
    k_locality : locality;
    k_nprocs : int;
    k_racy : bool;
    k_program : unit -> unit;
  }

  let sync_name = function Fence -> "fence" | Lock_all -> "lockall" | Flush_only -> "flush"

  let locality_name = function Remote -> "remote" | Local_buffer -> "local"

  (* Every kernel runs on three ranks over one 64-byte window owned by
     rank 0; the conflicting location is window displacement 8 unless
     the kernel is about an origin-side local buffer. Rank roles mirror
     the RMARaceBench suites: rank 0 is the target, ranks 1 and 2 are
     origins. *)
  let window_bytes = 64

  let conflict_disp = 8

  let disjoint_disp = 24

  let loc line op = Mpi.loc ~file:"kernel.c" ~line op

  (* Passive target: every rank opens one lock_all epoch; [body] runs
     inside it and receives the window and this rank's scratch origin
     buffer. *)
  let with_lock_all body () =
    let rank = Mpi.comm_rank () in
    let base = Mpi.alloc ~label:"window" ~exposed:true window_bytes in
    let buf = Mpi.alloc ~label:"origin" ~exposed:true 8 in
    let win = Mpi.win_create ~base ~size:window_bytes in
    Mpi.win_lock_all win;
    body ~rank ~win ~base ~buf;
    Mpi.win_unlock_all win;
    Mpi.win_free win

  (* Active target: [epochs] is a list of phases separated by fences. *)
  let with_fences epochs () =
    let rank = Mpi.comm_rank () in
    let base = Mpi.alloc ~label:"window" ~exposed:true window_bytes in
    let buf = Mpi.alloc ~label:"origin" ~exposed:true 8 in
    let win = Mpi.win_create ~base ~size:window_bytes in
    Mpi.win_fence win;
    List.iter
      (fun phase ->
        phase ~rank ~win ~base ~buf;
        Mpi.win_fence win)
      epochs;
    Mpi.win_free win

  let put ~line ~disp win buf = Mpi.put ~loc:(loc line "MPI_Put") win ~target:0 ~target_disp:disp ~origin_addr:buf ~len:8

  let get ~line ~disp win buf = Mpi.get ~loc:(loc line "MPI_Get") win ~target:0 ~target_disp:disp ~origin_addr:buf ~len:8

  let accumulate ~line ~disp win buf =
    Mpi.accumulate ~loc:(loc line "MPI_Accumulate") win ~target:0 ~target_disp:disp
      ~origin_addr:buf ~len:8 ~op:Mpi_sim.Runtime.Sum

  let all =
    [
      ( "conflict_put_put",
        Lock_all,
        Remote,
        true,
        with_lock_all (fun ~rank ~win ~base:_ ~buf ->
            if rank = 1 then put ~line:11 ~disp:conflict_disp win buf;
            if rank = 2 then put ~line:12 ~disp:conflict_disp win buf) );
      ( "disjoint_put_put",
        Lock_all,
        Remote,
        false,
        with_lock_all (fun ~rank ~win ~base:_ ~buf ->
            if rank = 1 then put ~line:11 ~disp:conflict_disp win buf;
            if rank = 2 then put ~line:12 ~disp:disjoint_disp win buf) );
      (* Remote put vs the target's own load of the same location in the
         same passive epoch. *)
      ( "nosync_put_load",
        Lock_all,
        Remote,
        true,
        with_lock_all (fun ~rank ~win ~base ~buf ->
            if rank = 1 then put ~line:11 ~disp:conflict_disp win buf;
            if rank = 0 then
              ignore (Mpi.load ~loc:(loc 13 "Load") ~addr:(base + conflict_disp) ~len:8 ())) );
      (* The same pair separated by a fence: the put's epoch is closed
         (and the window trees cleared) before the target reads. *)
      ( "sync_put_load",
        Fence,
        Remote,
        false,
        with_fences
          [
            (fun ~rank ~win ~base:_ ~buf -> if rank = 1 then put ~line:11 ~disp:conflict_disp win buf);
            (fun ~rank ~win:_ ~base ~buf:_ ->
              if rank = 0 then
                ignore (Mpi.load ~loc:(loc 13 "Load") ~addr:(base + conflict_disp) ~len:8 ()));
          ] );
      (* A get writes its origin buffer; storing to that buffer before
         the epoch closes races with the get's deferred completion. *)
      ( "get_store_buffer",
        Lock_all,
        Local_buffer,
        true,
        with_lock_all (fun ~rank ~win ~base:_ ~buf ->
            if rank = 1 then begin
              get ~line:11 ~disp:conflict_disp win buf;
              Mpi.store ~loc:(loc 12 "Store") ~addr:buf (Bytes.make 8 'k')
            end) );
      (* Program order protects a local access followed by an RMA call
         of the same process (the Figure 3 exception): safe. *)
      ( "store_get_buffer",
        Lock_all,
        Local_buffer,
        false,
        with_lock_all (fun ~rank ~win ~base:_ ~buf ->
            if rank = 1 then begin
              Mpi.store ~loc:(loc 11 "Store") ~addr:buf (Bytes.make 8 'k');
              get ~line:12 ~disp:conflict_disp win buf
            end) );
      (* Concurrent accumulates are element-atomic (§2.1): safe even on
         the same location. *)
      ( "acc_acc_atomic",
        Fence,
        Remote,
        false,
        with_fences
          [
            (fun ~rank ~win ~base:_ ~buf ->
              if rank = 1 then accumulate ~line:11 ~disp:conflict_disp win buf;
              if rank = 2 then accumulate ~line:12 ~disp:conflict_disp win buf);
          ] );
      (* Mixing an accumulate with a plain put loses the atomicity
         guarantee: race. *)
      ( "acc_put_mixed",
        Lock_all,
        Remote,
        true,
        with_lock_all (fun ~rank ~win ~base:_ ~buf ->
            if rank = 1 then accumulate ~line:11 ~disp:conflict_disp win buf;
            if rank = 2 then put ~line:12 ~disp:conflict_disp win buf) );
      (* MPI_Win_flush_all only orders the CALLER's operations; it does
         not synchronise other origins, so the conflict stands (§6(2)). *)
      ( "flush_put_put",
        Flush_only,
        Remote,
        true,
        with_lock_all (fun ~rank ~win ~base:_ ~buf ->
            if rank = 1 then begin
              put ~line:11 ~disp:conflict_disp win buf;
              Mpi.win_flush_all ~loc:(loc 12 "MPI_Win_flush_all") win
            end;
            if rank = 2 then put ~line:13 ~disp:conflict_disp win buf) );
      (* Two puts to the same location in different fence epochs: the
         fence separates them. *)
      ( "epoch_put_put",
        Fence,
        Remote,
        false,
        with_fences
          [
            (fun ~rank ~win ~base:_ ~buf -> if rank = 1 then put ~line:11 ~disp:conflict_disp win buf);
            (fun ~rank ~win ~base:_ ~buf -> if rank = 2 then put ~line:12 ~disp:conflict_disp win buf);
          ] );
      (* Concurrent reads of one location from two origins: safe. *)
      ( "get_get_read",
        Lock_all,
        Remote,
        false,
        with_lock_all (fun ~rank ~win ~base:_ ~buf ->
            if rank = 1 then get ~line:11 ~disp:conflict_disp win buf;
            if rank = 2 then get ~line:12 ~disp:conflict_disp win buf) );
      (* The Code 2 shape inside a real run: a loop of adjacent one-byte
         gets into consecutive origin-buffer bytes (and consecutive
         window bytes). Safe, and the insert fast path's best case. *)
      ( "adjacent_get_loop",
        Lock_all,
        Local_buffer,
        false,
        (fun () ->
          let rank = Mpi.comm_rank () in
          let base = Mpi.alloc ~label:"window" ~exposed:true window_bytes in
          let buf = Mpi.alloc ~label:"dest" ~exposed:true window_bytes in
          let win = Mpi.win_create ~base ~size:window_bytes in
          Mpi.win_lock_all win;
          if rank = 1 then
            for i = 0 to window_bytes - 1 do
              Mpi.get ~loc:(loc 11 "MPI_Get") win ~target:0 ~target_disp:i
                ~origin_addr:(buf + i) ~len:1
            done;
          Mpi.win_unlock_all win;
          Mpi.win_free win) );
    ]
    |> List.map (fun (stem, k_sync, k_locality, k_racy, k_program) ->
           {
             k_name =
               Printf.sprintf "rrb_%s_%s_%s_%s" (sync_name k_sync) (locality_name k_locality)
                 stem
                 (if k_racy then "race" else "safe");
             k_sync;
             k_locality;
             k_nprocs = 3;
             k_racy;
             k_program;
           })


  (* ---------------------------------------------------------------- *)
  (* Hybrid MPI+threads kernels                                        *)
  (* ---------------------------------------------------------------- *)

  (* Every hybrid kernel spawns at least one intra-rank thread and is
     labelled with its ground truth under ANY legal interleaving: spawns
     happen inside the epoch they target and every spawned thread is
     joined (or ordered by signal/wait) before the epoch closes, so the
     verdict cannot depend on the scheduler's interleave seed. *)
  let hybrid =
    [
      (* Remote put racing the target's OWN spawned thread reading the
         same window bytes inside one passive epoch. *)
      ( "put_tload",
        Lock_all,
        Remote,
        true,
        with_lock_all (fun ~rank ~win ~base ~buf ->
            if rank = 1 then put ~line:11 ~disp:conflict_disp win buf;
            if rank = 0 then begin
              let t =
                Mpi.thread_spawn (fun () ->
                    ignore (Mpi.load ~loc:(loc 21 "Load") ~addr:(base + conflict_disp) ~len:8 ()))
              in
              Mpi.thread_join t
            end) );
      (* Same pair under active target, both in the same fence phase. *)
      ( "epoch_put_tload",
        Fence,
        Remote,
        true,
        with_fences
          [
            (fun ~rank ~win ~base ~buf ->
              if rank = 1 then put ~line:11 ~disp:conflict_disp win buf;
              if rank = 0 then begin
                let t =
                  Mpi.thread_spawn (fun () ->
                      ignore
                        (Mpi.load ~loc:(loc 21 "Load") ~addr:(base + conflict_disp) ~len:8 ()))
                in
                Mpi.thread_join t
              end);
          ] );
      (* The spawned reader parks on a signal the main thread only posts
         in the NEXT fence phase: the load is pinned to the put-free
         epoch, so the pair is safe in every interleaving. *)
      ( "sigwait_put_tload",
        Fence,
        Remote,
        false,
        (fun () ->
          let rank = Mpi.comm_rank () in
          let base = Mpi.alloc ~label:"window" ~exposed:true window_bytes in
          let buf = Mpi.alloc ~label:"origin" ~exposed:true 8 in
          let win = Mpi.win_create ~base ~size:window_bytes in
          Mpi.win_fence win;
          (* Phase 1: rank 1 puts; rank 0 spawns the parked reader. *)
          let reader = ref None in
          if rank = 1 then put ~line:11 ~disp:conflict_disp win buf;
          if rank = 0 then
            reader :=
              Some
                (Mpi.thread_spawn (fun () ->
                     Mpi.wait 0;
                     ignore
                       (Mpi.load ~loc:(loc 21 "Load") ~addr:(base + conflict_disp) ~len:8 ())));
          Mpi.win_fence win;
          (* Phase 2: release and retire the reader. *)
          (match !reader with
          | Some t ->
              Mpi.signal 0;
              Mpi.thread_join t
          | None -> ());
          Mpi.win_fence win;
          Mpi.win_free win) );
      (* Thread load in the fence phase AFTER the put: safe. *)
      ( "phase_put_tload",
        Fence,
        Remote,
        false,
        with_fences
          [
            (fun ~rank ~win ~base:_ ~buf ->
              if rank = 1 then put ~line:11 ~disp:conflict_disp win buf);
            (fun ~rank ~win:_ ~base ~buf:_ ->
              if rank = 0 then begin
                let t =
                  Mpi.thread_spawn (fun () ->
                      ignore
                        (Mpi.load ~loc:(loc 21 "Load") ~addr:(base + conflict_disp) ~len:8 ()))
                in
                Mpi.thread_join t
              end);
          ] );
      (* Remote get vs a target-side thread writing the read bytes. *)
      ( "get_tstore",
        Lock_all,
        Remote,
        true,
        with_lock_all (fun ~rank ~win ~base ~buf ->
            if rank = 1 then get ~line:11 ~disp:conflict_disp win buf;
            if rank = 0 then begin
              let t =
                Mpi.thread_spawn (fun () ->
                    Mpi.store ~loc:(loc 21 "Store") ~addr:(base + conflict_disp)
                      (Bytes.make 8 'h'))
              in
              Mpi.thread_join t
            end) );
      (* The same store moved one fence phase later: safe. *)
      ( "phase_get_tstore",
        Fence,
        Remote,
        false,
        with_fences
          [
            (fun ~rank ~win ~base:_ ~buf ->
              if rank = 1 then get ~line:11 ~disp:conflict_disp win buf);
            (fun ~rank ~win:_ ~base ~buf:_ ->
              if rank = 0 then begin
                let t =
                  Mpi.thread_spawn (fun () ->
                      Mpi.store ~loc:(loc 21 "Store") ~addr:(base + conflict_disp)
                        (Bytes.make 8 'h'))
                in
                Mpi.thread_join t
              end);
          ] );
      (* The kernel the thread-aware order test exists for: a sibling
         thread stores the origin buffer while the main thread puts from
         it. Same rank, so the thread-oblivious rule would excuse the
         store under the local-then-RMA program-order exception; the
         threads are unsynchronised, so it is a race. *)
      ( "tstore_put_unordered",
        Lock_all,
        Local_buffer,
        true,
        with_lock_all (fun ~rank ~win ~base:_ ~buf ->
            if rank = 1 then begin
              let t =
                Mpi.thread_spawn (fun () ->
                    Mpi.store ~loc:(loc 21 "Store") ~addr:buf (Bytes.make 8 'k'))
              in
              put ~line:11 ~disp:disjoint_disp win buf;
              Mpi.thread_join t
            end) );
      (* Join the storing thread BEFORE the put: the join edge makes the
         store program-ordered before the RMA call, restoring the
         Figure 3 exception. *)
      ( "tstore_join_put",
        Lock_all,
        Local_buffer,
        false,
        with_lock_all (fun ~rank ~win ~base:_ ~buf ->
            if rank = 1 then begin
              let t =
                Mpi.thread_spawn (fun () ->
                    Mpi.store ~loc:(loc 21 "Store") ~addr:buf (Bytes.make 8 'k'))
              in
              Mpi.thread_join t;
              put ~line:11 ~disp:disjoint_disp win buf
            end) );
      (* Signal/wait as the ordering edge: the main thread stores the
         buffer and signals; the sibling waits, then gets into it. *)
      ( "store_sigwait_tget",
        Lock_all,
        Local_buffer,
        false,
        with_lock_all (fun ~rank ~win ~base:_ ~buf ->
            if rank = 1 then begin
              let t =
                Mpi.thread_spawn (fun () ->
                    Mpi.wait 0;
                    get ~line:21 ~disp:conflict_disp win buf)
              in
              Mpi.store ~loc:(loc 11 "Store") ~addr:buf (Bytes.make 8 'k');
              Mpi.signal 0;
              Mpi.thread_join t
            end) );
      (* The same pair with the signal removed: the get may overwrite the
         buffer while the sibling's store is in flight. *)
      ( "store_nosig_tget",
        Lock_all,
        Local_buffer,
        true,
        with_lock_all (fun ~rank ~win ~base:_ ~buf ->
            if rank = 1 then begin
              let t = Mpi.thread_spawn (fun () -> get ~line:21 ~disp:conflict_disp win buf) in
              Mpi.store ~loc:(loc 11 "Store") ~addr:buf (Bytes.make 8 'k');
              Mpi.thread_join t
            end) );
      (* Two sibling threads of one origin putting to the same target
         bytes: unordered RMA writes race even within one rank. *)
      ( "tput_tput",
        Lock_all,
        Remote,
        true,
        with_lock_all (fun ~rank ~win ~base:_ ~buf ->
            if rank = 1 then begin
              let t = Mpi.thread_spawn (fun () -> put ~line:21 ~disp:conflict_disp win buf) in
              put ~line:11 ~disp:conflict_disp win buf;
              Mpi.thread_join t
            end) );
      (* Disjoint displacements: safe. *)
      ( "tput_tput_disjoint",
        Lock_all,
        Remote,
        false,
        with_lock_all (fun ~rank ~win ~base:_ ~buf ->
            if rank = 1 then begin
              let t = Mpi.thread_spawn (fun () -> put ~line:21 ~disp:disjoint_disp win buf) in
              put ~line:11 ~disp:conflict_disp win buf;
              Mpi.thread_join t
            end) );
      (* A task reads the window, signals, and the main thread waits
         before fencing: closing the epoch is perfectly protected, yet
         the load still shares the phase with rank 1's put — race. *)
      ( "tload_window_close",
        Fence,
        Remote,
        true,
        with_fences
          [
            (fun ~rank ~win ~base ~buf ->
              if rank = 1 then put ~line:11 ~disp:conflict_disp win buf;
              if rank = 0 then begin
                let t =
                  Mpi.thread_spawn (fun () ->
                      ignore
                        (Mpi.load ~loc:(loc 21 "Load") ~addr:(base + conflict_disp) ~len:8 ());
                      Mpi.signal 0)
                in
                Mpi.wait 0;
                Mpi.thread_join t
              end);
          ] );
      (* Element-atomic accumulates stay safe when one of them moves to a
         spawned thread of another rank. *)
      ( "acc_tacc_atomic",
        Lock_all,
        Remote,
        false,
        with_lock_all (fun ~rank ~win ~base:_ ~buf ->
            if rank = 1 then accumulate ~line:11 ~disp:conflict_disp win buf;
            if rank = 2 then begin
              let t =
                Mpi.thread_spawn (fun () -> accumulate ~line:21 ~disp:conflict_disp win buf)
              in
              Mpi.thread_join t
            end) );
      (* ... but mixing in a plain put from the thread loses atomicity. *)
      ( "acc_tput_mixed",
        Lock_all,
        Remote,
        true,
        with_lock_all (fun ~rank ~win ~base:_ ~buf ->
            if rank = 1 then accumulate ~line:11 ~disp:conflict_disp win buf;
            if rank = 2 then begin
              let t = Mpi.thread_spawn (fun () -> put ~line:21 ~disp:conflict_disp win buf) in
              Mpi.thread_join t
            end) );
    ]
    |> List.map (fun (stem, k_sync, k_locality, k_racy, k_program) ->
           {
             k_name =
               Printf.sprintf "hyb_%s_%s_%s_%s" (sync_name k_sync) (locality_name k_locality)
                 stem
                 (if k_racy then "race" else "safe");
             k_sync;
             k_locality;
             k_nprocs = 3;
             k_racy;
             k_program;
           })

  (* ---------------------------------------------------------------- *)
  (* Predictive (schedulable-race) kernels                             *)
  (* ---------------------------------------------------------------- *)

  (* Consecutive passive-target epochs: each phase runs in its own
     lock_all..unlock_all epoch on the same window, with NOTHING but the
     unlocks between phases. unlock_all is not collective, so whether
     the observed analysis still holds phase-1 accesses when a phase-2
     access arrives depends on the schedule (a rank can race through its
     unlock and next lock before the others close) — the exact gap
     predictive mode closes. [between] runs on every rank between
     phases (e.g. [Mpi.barrier] for the flushed-barrier safe control). *)
  let with_lock_all_phases ?(between = fun () -> ()) phases () =
    let rank = Mpi.comm_rank () in
    let base = Mpi.alloc ~label:"window" ~exposed:true window_bytes in
    let buf = Mpi.alloc ~label:"origin" ~exposed:true 8 in
    let win = Mpi.win_create ~base ~size:window_bytes in
    List.iteri
      (fun i phase ->
        if i > 0 then between ();
        Mpi.win_lock_all win;
        phase ~rank ~win ~base ~buf;
        Mpi.win_unlock_all win)
      phases;
    Mpi.win_free win

  (* The [k_racy] label of a prd_ kernel is its ground truth under MPI
     synchronization semantics — i.e. whether SOME legal schedule
     overlaps the pair. Under predictive analysis the union of observed
     and predicted races is schedule-independent and must match the
     label at every interleave seed; which side of the partition a
     conflict lands on is the schedule-dependent part. *)
  let predictive =
    [
      (* Puts from two origins to the same location in consecutive
         passive epochs: rank 1's unlock completes its put, but nothing
         orders rank 2's next-epoch put behind it. *)
      ( "epochs_put_put",
        Lock_all,
        Remote,
        true,
        with_lock_all_phases
          [
            (fun ~rank ~win ~base:_ ~buf -> if rank = 1 then put ~line:11 ~disp:conflict_disp win buf);
            (fun ~rank ~win ~base:_ ~buf -> if rank = 2 then put ~line:12 ~disp:conflict_disp win buf);
          ] );
      (* A remote put in epoch 1 against the target's own load in epoch
         2 of the same window. *)
      ( "epochs_put_load",
        Lock_all,
        Remote,
        true,
        with_lock_all_phases
          [
            (fun ~rank ~win ~base:_ ~buf -> if rank = 1 then put ~line:11 ~disp:conflict_disp win buf);
            (fun ~rank ~win:_ ~base ~buf:_ ->
              if rank = 0 then
                ignore (Mpi.load ~loc:(loc 13 "Load") ~addr:(base + conflict_disp) ~len:8 ()));
          ] );
      (* Same cross-epoch shape, disjoint locations: nothing conflicts
         under any order. *)
      ( "epochs_put_put_disjoint",
        Lock_all,
        Remote,
        false,
        with_lock_all_phases
          [
            (fun ~rank ~win ~base:_ ~buf -> if rank = 1 then put ~line:11 ~disp:conflict_disp win buf);
            (fun ~rank ~win ~base:_ ~buf -> if rank = 2 then put ~line:12 ~disp:disjoint_disp win buf);
          ] );
      (* Same conflicting pair, but an MPI_Barrier between the epochs:
         every rank's unlock_all has completed (flushed) its one-sided
         traffic before the barrier, so the barrier truly orders epoch 1
         before epoch 2 under every schedule — the flush-then-barrier
         idiom. Safe, observed AND predicted. *)
      ( "barrier_put_put",
        Lock_all,
        Remote,
        false,
        with_lock_all_phases ~between:Mpi.barrier
          [
            (fun ~rank ~win ~base:_ ~buf -> if rank = 1 then put ~line:11 ~disp:conflict_disp win buf);
            (fun ~rank ~win ~base:_ ~buf -> if rank = 2 then put ~line:12 ~disp:conflict_disp win buf);
          ] );
      (* Fence-separated epochs: the fence is a true synchronization
         edge, the weak trees clear exactly like the observed ones. *)
      ( "fences_put_put",
        Fence,
        Remote,
        false,
        with_fences
          [
            (fun ~rank ~win ~base:_ ~buf -> if rank = 1 then put ~line:21 ~disp:conflict_disp win buf);
            (fun ~rank ~win ~base:_ ~buf -> if rank = 2 then put ~line:22 ~disp:conflict_disp win buf);
          ] );
      (* Cross-epoch accumulates keep the §2.1 atomicity guarantee:
         no race under any schedule. *)
      ( "epochs_acc_acc",
        Lock_all,
        Remote,
        false,
        with_lock_all_phases
          [
            (fun ~rank ~win ~base:_ ~buf ->
              if rank = 1 then accumulate ~line:11 ~disp:conflict_disp win buf);
            (fun ~rank ~win ~base:_ ~buf ->
              if rank = 2 then accumulate ~line:12 ~disp:conflict_disp win buf);
          ] );
    ]
    |> List.map (fun (stem, k_sync, k_locality, k_racy, k_program) ->
           {
             k_name =
               Printf.sprintf "prd_%s_%s_%s_%s" (sync_name k_sync) (locality_name k_locality)
                 stem
                 (if k_racy then "race" else "safe");
             k_sync;
             k_locality;
             k_nprocs = 3;
             k_racy;
             k_program;
           })

  let find name =
    List.find_opt (fun k -> String.equal k.k_name name) (all @ hybrid @ predictive)
end
