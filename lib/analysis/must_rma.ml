open Rma_access
module Event = Mpi_sim.Event
module Config = Mpi_sim.Config
module Vclock = Rma_vclock.Vclock
module Shadow = Rma_shadow.Shadow

(* Every one-sided operation runs on its own virtual thread (concurrent
   region). Instead of folding virtual ids into the vector clocks —
   which would grow them with the operation count — each virtual thread
   is retired through [vid_info]: at epoch close the origin ticks its
   own clock component and the vid records that tick value. An event
   stamped by a vid then happens-before a later access iff the access's
   clock has seen the origin at or past the join tick. This mirrors how
   TSan retires thread segments and keeps clocks O(nprocs). *)
type vid_info = { origin : int; mutable joined_at : int option }

type state = {
  nprocs : int;
  config : Config.t;
  mode : Tool.mode;
  mutable clocks : Vclock.t array;  (* per rank *)
  shadows : Shadow.t array;  (* per address space *)
  mutable next_vid : int;
  vids : (int, vid_info) Hashtbl.t;
  epoch_vids : (int * Event.win_id, int list) Hashtbl.t;
      (* virtual threads of the one-sided ops an origin has issued in
         its currently-open epoch on a window *)
  mutable outstanding : int;  (* unjoined virtual threads, all ranks *)
  mutable collective_buffer : int list;  (* ranks seen in the current sync *)
  mutable races : Report.t list;
  mutable race_count : int;
}

let name = "MUST-RMA"

let access_of_cell (c : Shadow.cell) =
  Access.make
    ~interval:(Interval.make ~lo:c.Shadow.lo ~hi:c.Shadow.hi)
    ~kind:c.Shadow.kind ~issuer:c.Shadow.issuer ~seq:0 ~debug:c.Shadow.debug

let record_race st ~space ~win ~(race : Shadow.race) ~clock ~sim_time =
  let provenance =
    {
      Report.empty_provenance with
      Report.id = st.race_count + 1;
      vclock = Some (Vclock.components clock);
    }
  in
  let report =
    Report.make ~tool:name ~space ~win
      ~existing:(access_of_cell race.Shadow.prior)
      ~incoming:(access_of_cell race.Shadow.current)
      ~sim_time ~provenance ()
  in
  st.race_count <- st.race_count + 1;
  if st.race_count <= Tool.max_reports then st.races <- report :: st.races;
  match st.mode with
  | Tool.Abort_on_race -> raise (Report.Race_abort report)
  | Tool.Collect -> ()

(* The happens-before test behind the shadow memory: real ranks use the
   plain stamp check; virtual threads are ordered once joined and the
   observer has seen the origin's join tick. *)
let happens_before st stamp clock =
  let thread = stamp.Vclock.thread in
  if thread < st.nprocs then Vclock.stamp_observed stamp ~by:clock
  else begin
    match Hashtbl.find_opt st.vids thread with
    | None -> false
    | Some info -> (
        match info.joined_at with
        | None -> false
        | Some tick -> Vclock.get clock info.origin >= tick)
  end

(* Piggyback cost of shipping this rank's clock plus the descriptors of
   outstanding concurrent regions in a synchronising message: grows with
   rank count and with unfinished one-sided operations (§5.3). *)
let piggyback_cost st =
  Config.collective_cost st.config ~nprocs:st.nprocs
    ~bytes_count:(8 * (st.nprocs + st.outstanding))

let on_sync st rank =
  st.collective_buffer <- rank :: st.collective_buffer;
  if List.length st.collective_buffer = st.nprocs then begin
    let merged = Array.fold_left Vclock.merge Vclock.empty st.clocks in
    st.clocks <- Array.mapi (fun r _ -> Vclock.tick merged r) st.clocks;
    st.collective_buffer <- []
  end;
  piggyback_cost st

let on_access st (a : Event.access_event) =
  let access = a.Event.access in
  let local = Access_kind.is_local access.Access.kind in
  if a.Event.on_stack && local then
    (* ThreadSanitizer does not instrument stack arrays; one-sided
       operations are still annotated through the PMPI layer, so only
       the compiler-instrumented local accesses go missing. *)
    0.0
  else begin
    let issuer = access.Access.issuer in
    let interval = access.Access.interval in
    let kind = access.Access.kind in
    let check ~thread ~clock =
      Shadow.record_and_check st.shadows.(a.Event.space) ~interval ~thread ~clock ~kind ~issuer
        ~debug:access.Access.debug
    in
    let race, clock_used =
      if local then begin
        (* TSan ticks the thread epoch on every access, keeping
           same-thread accesses ordered. *)
        st.clocks.(issuer) <- Vclock.tick st.clocks.(issuer) issuer;
        (check ~thread:issuer ~clock:st.clocks.(issuer), st.clocks.(issuer))
      end
      else begin
        (* One-sided operation: fresh virtual thread snapshotting the
           origin; retired at epoch close. The two events of one MPI
           call (origin-buffer side, target side) arrive back to back
           and get separate regions, which is harmless: they can never
           overlap, living in different address spaces. *)
        let vid = st.next_vid in
        st.next_vid <- vid + 1;
        Hashtbl.replace st.vids vid { origin = issuer; joined_at = None };
        st.outstanding <- st.outstanding + 1;
        (match a.Event.win with
        | Some w ->
            let key = (issuer, w) in
            let existing = Option.value (Hashtbl.find_opt st.epoch_vids key) ~default:[] in
            Hashtbl.replace st.epoch_vids key (vid :: existing)
        | None -> ());
        let clock = Vclock.set st.clocks.(issuer) vid 1 in
        (check ~thread:vid ~clock, clock)
      end
    in
    (match race with
    | Some r ->
        record_race st ~space:a.Event.space ~win:a.Event.win ~race:r ~clock:clock_used
          ~sim_time:a.Event.sim_time
    | None -> ());
    (* Clock piggyback on the internal notification for remote accesses. *)
    if (not local) && a.Event.space <> issuer then
      Config.message_cost st.config ~bytes_count:(8 * st.nprocs)
    else 0.0
  end

let observer st event =
  match event with
  | Event.Access a -> on_access st a
  | Event.Epoch_opened { rank; _ } ->
      st.clocks.(rank) <- Vclock.tick st.clocks.(rank) rank;
      0.0
  | Event.Epoch_closed { win; rank; _ } ->
      (* Retire the epoch's virtual threads: one tick on the origin
         orders every operation of the epoch before whatever observes
         that tick. *)
      let key = (rank, win) in
      let vids = Option.value (Hashtbl.find_opt st.epoch_vids key) ~default:[] in
      Hashtbl.remove st.epoch_vids key;
      st.clocks.(rank) <- Vclock.tick st.clocks.(rank) rank;
      let tick = Vclock.get st.clocks.(rank) rank in
      List.iter
        (fun vid ->
          match Hashtbl.find_opt st.vids vid with
          | Some info ->
              info.joined_at <- Some tick;
              st.outstanding <- st.outstanding - 1
          | None -> ())
        vids;
      piggyback_cost st
  | Event.Collective { rank; _ } -> on_sync st rank
  | Event.Win_created { rank; _ } -> on_sync st rank
  | Event.Win_freed { rank; _ } -> on_sync st rank
  | Event.Flushed _ ->
      (* Like the other tools, MUST-RMA does not instrument
         MPI_Win_flush correctly (§6(2)). *)
      0.0
  | Event.Finished _ -> 0.0

let create ~nprocs ?(config = Config.default) ?(mode = Tool.Collect) () =
  let fresh_clocks () = Array.init nprocs (fun _ -> Vclock.create ~nprocs) in
  (* The shadow memories need the state's happens-before test before the
     state exists; tie the knot through a reference. *)
  let hb_ref = ref (fun _ _ -> false) in
  let st =
    {
      nprocs;
      config;
      mode;
      clocks = fresh_clocks ();
      shadows =
        Array.init nprocs (fun _ ->
            Shadow.create ~happens_before:(fun s c -> !hb_ref s c) ());
      next_vid = nprocs;
      vids = Hashtbl.create 4096;
      epoch_vids = Hashtbl.create 16;
      outstanding = 0;
      collective_buffer = [];
      races = [];
      race_count = 0;
    }
  in
  hb_ref := happens_before st;
  {
    Tool.name;
    observer = observer st;
    races = (fun () -> List.rev st.races);
    race_count = (fun () -> st.race_count);
    bst_summary = (fun () -> Tool.empty_bst_summary);
    reset =
      (fun () ->
        st.clocks <- fresh_clocks ();
        Array.iter Shadow.clear st.shadows;
        st.next_vid <- nprocs;
        Hashtbl.reset st.vids;
        Hashtbl.reset st.epoch_vids;
        st.outstanding <- 0;
        st.collective_buffer <- [];
        st.races <- [];
        st.race_count <- 0);
  }
