open Rma_access
module Event = Mpi_sim.Event
module Vclock = Rma_vclock.Vclock

type race_pair = {
  space : int;
  win : Event.win_id option;
  first : Access.t;
  second : Access.t;
  first_clock : Vclock.t;
  second_clock : Vclock.t;
}

type result = {
  races : race_pair list;
  distinct_pairs : int;
  accesses_checked : int;
  pairs_checked : int;
}

(* One recorded access with its reconstructed happens-before identity. *)
type stamped = {
  access : Access.t;
  space : int;
  win : Event.win_id option;
  thread : int;  (** Real rank for local accesses, virtual id for RMA. *)
  clock : Vclock.t;  (** Snapshot when the access happened. *)
  order : int;  (** Trace position, for deterministic pair direction. *)
}

type vid_info = { origin : int; mutable joined_at : int option }

let nprocs_step acc = function
  | Event.Access a -> max acc (max (a.Event.space + 1) (a.Event.access.Access.issuer + 1))
  | Event.Collective { rank; _ }
  | Event.Win_created { rank; _ }
  | Event.Win_freed { rank; _ }
  | Event.Epoch_opened { rank; _ }
  | Event.Epoch_closed { rank; _ }
  | Event.Flushed { rank; _ }
  | Event.Finished { rank; _ } -> max acc (rank + 1)

(* Phase 1: replay the synchronisation structure, stamping every access
   with its thread and clock — the same region model as the MUST-RMA
   baseline (virtual region per one-sided operation, retired at epoch
   close; collectives merge). *)
let stamp_accesses events =
  let nprocs = List.fold_left nprocs_step 1 events in
  let clocks = Array.init nprocs (fun _ -> Vclock.create ~nprocs) in
  let vids : (int, vid_info) Hashtbl.t = Hashtbl.create 1024 in
  let epoch_vids : (int * Event.win_id, int list) Hashtbl.t = Hashtbl.create 16 in
  let next_vid = ref nprocs in
  let collective_buffer = ref [] in
  let stamped = ref [] in
  let order = ref 0 in
  let on_sync rank =
    collective_buffer := rank :: !collective_buffer;
    if List.length !collective_buffer = nprocs then begin
      let merged = Array.fold_left Vclock.merge Vclock.empty clocks in
      Array.iteri (fun r _ -> clocks.(r) <- Vclock.tick merged r) clocks;
      collective_buffer := []
    end
  in
  List.iter
    (fun event ->
      match event with
      | Event.Access a ->
          incr order;
          let access = a.Event.access in
          let issuer = access.Access.issuer in
          let thread, clock =
            if Access_kind.is_local access.Access.kind then begin
              clocks.(issuer) <- Vclock.tick clocks.(issuer) issuer;
              (issuer, clocks.(issuer))
            end
            else begin
              let vid = !next_vid in
              incr next_vid;
              Hashtbl.replace vids vid { origin = issuer; joined_at = None };
              (match a.Event.win with
              | Some w ->
                  let key = (issuer, w) in
                  let existing = Option.value (Hashtbl.find_opt epoch_vids key) ~default:[] in
                  Hashtbl.replace epoch_vids key (vid :: existing)
              | None -> ());
              (vid, Vclock.set clocks.(issuer) vid 1)
            end
          in
          stamped :=
            { access; space = a.Event.space; win = a.Event.win; thread; clock; order = !order }
            :: !stamped
      | Event.Epoch_opened { rank; _ } -> clocks.(rank) <- Vclock.tick clocks.(rank) rank
      | Event.Epoch_closed { win; rank; _ } ->
          let key = (rank, win) in
          let joined = Option.value (Hashtbl.find_opt epoch_vids key) ~default:[] in
          Hashtbl.remove epoch_vids key;
          clocks.(rank) <- Vclock.tick clocks.(rank) rank;
          let tick = Vclock.get clocks.(rank) rank in
          List.iter
            (fun vid ->
              match Hashtbl.find_opt vids vid with
              | Some info -> info.joined_at <- Some tick
              | None -> ())
            joined
      | Event.Collective { rank; _ } | Event.Win_created { rank; _ } | Event.Win_freed { rank; _ }
        -> on_sync rank
      | Event.Flushed _ | Event.Finished _ -> ())
    events;
  (nprocs, vids, List.rev !stamped)

let happens_before ~nprocs ~vids earlier later =
  if earlier.thread = later.thread then true
  else if earlier.thread < nprocs then
    Vclock.stamp_observed (Vclock.stamp_of earlier.clock ~thread:earlier.thread) ~by:later.clock
  else begin
    match Hashtbl.find_opt vids earlier.thread with
    | None -> false
    | Some info -> (
        match info.joined_at with
        | None -> false
        | Some tick -> Vclock.get later.clock info.origin >= tick)
  end

let conflicting a b =
  let ka = a.access.Access.kind and kb = b.access.Access.kind in
  (Access_kind.is_rma ka || Access_kind.is_rma kb)
  && (Access_kind.is_write ka || Access_kind.is_write kb)
  && (not (Access_kind.is_local ka && Access_kind.is_local kb))
  && not (Access_kind.is_accumulate ka && Access_kind.is_accumulate kb)

let statement_pair_key space a b =
  let side access =
    ( access.Access.debug.Debug_info.file,
      access.Access.debug.Debug_info.line,
      access.Access.debug.Debug_info.operation,
      Access_kind.to_string access.Access.kind )
  in
  (* Order-independent key so (a,b) and (b,a) collapse. *)
  let sa = side a and sb = side b in
  if sa <= sb then (space, sa, sb) else (space, sb, sa)

(* Distinct pairs reported at most; the rest are counted only. *)
let max_reports = 10_000

let analyze events =
  let nprocs, vids, stamped = stamp_accesses events in
  (* Group by address space, sort by interval lower bound, and sweep with
     an active list pruned by upper bound. *)
  let by_space = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let existing = Option.value (Hashtbl.find_opt by_space s.space) ~default:[] in
      Hashtbl.replace by_space s.space (s :: existing))
    stamped;
  let seen = Hashtbl.create 256 in
  let races = ref [] in
  let distinct = ref 0 in
  let pairs_checked = ref 0 in
  let accesses_checked = List.length stamped in
  Hashtbl.iter
    (fun space accesses ->
      let sorted =
        List.sort
          (fun a b -> Interval.compare_lo a.access.Access.interval b.access.Access.interval)
          accesses
      in
      let active = ref [] in
      List.iter
        (fun current ->
          let lo = Interval.lo current.access.Access.interval in
          active := List.filter (fun a -> Interval.hi a.access.Access.interval >= lo) !active;
          List.iter
            (fun prior ->
              if Interval.overlaps prior.access.Access.interval current.access.Access.interval
              then begin
                incr pairs_checked;
                let a, b =
                  if prior.order <= current.order then (prior, current) else (current, prior)
                in
                if
                  conflicting a b
                  && (not (happens_before ~nprocs ~vids a b))
                  && not (happens_before ~nprocs ~vids b a)
                then begin
                  let key = statement_pair_key space a.access b.access in
                  if not (Hashtbl.mem seen key) then begin
                    Hashtbl.replace seen key ();
                    incr distinct;
                    if !distinct <= max_reports then begin
                      let win = match a.win with Some _ as w -> w | None -> b.win in
                      races :=
                        {
                          space;
                          win;
                          first = a.access;
                          second = b.access;
                          first_clock = a.clock;
                          second_clock = b.clock;
                        }
                        :: !races
                    end
                  end
                end
              end)
            !active;
          active := current :: !active)
        sorted)
    by_space;
  {
    races = List.rev !races;
    distinct_pairs = !distinct;
    accesses_checked;
    pairs_checked = !pairs_checked;
  }

let to_reports result =
  (* Same provenance shape as the on-the-fly tools: sequential race ids,
     the second access's reconstructed clock as the detection snapshot,
     and each side carried as its own single-origin history (the
     post-mortem sweep never fragments, so the original accesses ARE the
     history). *)
  List.mapi
    (fun i (r : race_pair) ->
      let provenance =
        {
          Rma_analysis.Report.empty_provenance with
          Rma_analysis.Report.id = i + 1;
          vclock = Some (Vclock.components r.second_clock);
          existing_history =
            [ { Rma_store.Flight_recorder.access = r.first; epoch = 0 } ];
          incoming_history =
            [ { Rma_store.Flight_recorder.access = r.second; epoch = 0 } ];
        }
      in
      Rma_analysis.Report.make ~tool:"MC-Checker (post-mortem)" ~space:r.space ~win:r.win
        ~existing:r.first ~incoming:r.second ~sim_time:0.0 ~provenance ())
    result.races
