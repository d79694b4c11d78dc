type verdict =
  | No_race
  | Race of { first : Access.t; second : Access.t }
  | Predicted of { first : Access.t; second : Access.t }

(* [program_ordered]: [first] is known to happen-before [second] inside
   one process (same thread, or threads synchronised by a
   spawn/join/signal/wait edge). *)
let conflict_kinds_ordered ~order_aware ~program_ordered ~first ~second =
  let open Access_kind in
  if is_local first && is_local second then false
  else if is_accumulate first && is_accumulate second then
    (* The §2.1 atomicity property: accumulates are atomic at the
       datatype level and order-independent (same-op assumption), so two
       accumulates on the same location do not race. *)
    false
  else begin
    let has_rma = is_rma first || is_rma second in
    let has_write = is_write first || is_write second in
    if not (has_rma && has_write) then false
    else if program_ordered && order_aware && is_local first && is_rma second then
      (* Program order: the local access finished before the RMA call was
         issued by the same thread of the same process — or by a thread
         that had already joined/observed it (§5.2). A local access by a
         *different, unsynchronised* thread of the same rank gets no such
         protection: that is the hybrid MPI+threads race family. *)
      false
    else true
  end

(* Without thread information, same-process accesses are assumed to be
   program-ordered (the single-thread degenerate case). *)
let conflict_kinds ~order_aware ~same_process ~first ~second =
  conflict_kinds_ordered ~order_aware ~program_ordered:same_process ~first ~second

let check ~order_aware ~existing ~incoming =
  if not (Interval.overlaps existing.Access.interval incoming.Access.interval) then No_race
  else begin
    let program_ordered = Access.thread_ordered ~prior:existing ~later:incoming in
    if
      conflict_kinds_ordered ~order_aware ~program_ordered ~first:existing.Access.kind
        ~second:incoming.Access.kind
    then Race { first = existing; second = incoming }
    else No_race
  end

let races ~order_aware ~existing ~incoming =
  match check ~order_aware ~existing ~incoming with
  | No_race -> false
  | Race _ | Predicted _ -> true

(* The same conflict rule evaluated under the WEAK order — the order MPI
   synchronization semantics alone guarantee, independent of the
   schedule the run happened to take. Two refinements over [check]:

   - the Figure 3 local-then-RMA exception is judged by
     [Access.thread_ordered] exactly as in the observed rule, because
     thread views only advance at real synchronization edges
     (spawn/join/signal/wait), never at incidental scheduling — the
     exception is already weak-order sound;

   - conflicts whose two sides were issued by the SAME rank are excused:
     a same-rank pair either shares a synchronization phase (in which
     case the observed rule has already reported it) or is separated by
     one of the rank's own completion edges (unlock/flush/fence), which
     orders the rank's earlier operations before its later accesses
     under every schedule. Only cross-rank conflicts are schedulable
     races, and they surface as [Predicted]. *)
let check_weak ~order_aware ~existing ~incoming =
  match check ~order_aware ~existing ~incoming with
  | No_race -> No_race
  | Race { first; second } | Predicted { first; second } ->
      if Access.same_issuer first second then No_race else Predicted { first; second }
