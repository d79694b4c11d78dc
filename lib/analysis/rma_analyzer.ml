open Rma_access
open Rma_store
module Event = Mpi_sim.Event
module Config = Mpi_sim.Config
module Obs = Rma_obs.Obs
module Events = Rma_obs.Events
module Vclock = Rma_vclock.Vclock

type policy = Legacy | Contribution | Fragmentation_only | Order_blind

let policy_name = function
  | Legacy -> "RMA-Analyzer"
  | Contribution -> "Our Contribution"
  | Fragmentation_only -> "Fragmentation-only (ablation)"
  | Order_blind -> "Order-blind (ablation)"

(* The store implementations behind one dispatch. *)
type store = L of Legacy_store.t | D of Disjoint_store.t

let store_insert = function
  | L s -> Legacy_store.insert s
  | D s -> Disjoint_store.insert s
let store_stats = function
  | L s -> Legacy_store.stats s
  | D s -> Disjoint_store.stats s
let store_size = function
  | L s -> Legacy_store.size s
  | D s -> Disjoint_store.size s
let store_clear = function
  | L s -> Legacy_store.clear s
  | D s -> Disjoint_store.clear s

(* Flight-recorder hooks: only the disjoint store keeps interval
   history. The legacy store never merges (every access stays its own
   node, so its debug info survives unmodified). *)
let store_recorder = function D s -> Disjoint_store.recorder s | L _ -> None

(* Every store tracks epoch boundaries: the disjoint store stamps its
   flight recorder, and both move the governance watermark that
   [Spill_oldest_epoch] eviction keys on. *)
let store_note_epoch = function
  | D s -> Disjoint_store.note_epoch s
  | L s -> Legacy_store.note_epoch s

(* Has budget governance ever dropped or coarsened a node of this
   store? Races detected afterwards carry downgraded confidence. *)
let store_degraded store = (store_stats store).Store_intf.degraded_drops > 0

(* Only the disjoint store holds a run outside its tree (the finger).
   Epoch close moves it into the tree, so the next epoch starts with no
   finger whether or not the close also clears the window. Verdicts and
   node counts do not depend on this flush; the store's [tree_ops] and
   finger-hit counts do (a finger the window clear drops is never
   inserted). *)
let store_flush_finger = function D s -> Disjoint_store.flush_finger s | L _ -> ()

(* (space, window) tables with monomorphic key equality; [Hashtbl.hash]
   keeps the generic bucket layout, so iteration and race order hold. *)
module Tree_table = Hashtbl.Make (struct
  type t = int * Event.win_id
  let equal ((s, w) : t) ((s', w') : t) = Int.equal s s' && Int.equal w w'
  let hash = Hashtbl.hash
end)

type tree = {
  store : store;
  mutable epoch_open : bool;
  mutable nodes_at_last_close : int option;
  mutable epoch_span : Obs.span option;  (* open Epoch_opened..Epoch_closed trace span *)
}

(* Canonical source-site pair of a conflict, the dedup key between the
   observed and the weak analysis: the same pair of source lines must
   not be reported both as an observed and as a predicted race, and a
   weak tree (which is cleared more rarely) must not re-report a pair
   against several surviving older nodes. *)
type site = string * int * string

let site_of (a : Access.t) =
  ( a.Access.debug.Debug_info.file,
    a.Access.debug.Debug_info.line,
    a.Access.debug.Debug_info.operation )

let pair_key_of a b : site * site =
  let sa = site_of a and sb = site_of b in
  if Debug_info.compare a.Access.debug b.Access.debug <= 0 then (sa, sb) else (sb, sa)

(* Predictive half of the analyzer (DESIGN.md §15): a second set of
   (space, window) trees sharing the store machinery but cleared only at
   TRUE synchronization edges — fence completion, and collective
   barriers whose outstanding one-sided traffic was flushed — never at
   the schedule-dependent all-ranks-closed point the observed trees
   clear at. Conflicts surviving in a weak tree are unordered under MPI
   semantics alone: some legal schedule overlaps them ("schedulable
   races", reported as [predicted] with a witness reordering). *)
type predictive = {
  weak_trees : tree Tree_table.t;
  weak_phase : (Event.win_id, int) Hashtbl.t;
      (* Synchronization phases of a window: bumped on every weak clear.
         Two accesses in the same phase are weak-concurrent. *)
  last_closed : (int, Event.win_id) Hashtbl.t;
      (* rank -> window of the rank's most recent Epoch_closed.
         [Collective Fence] events carry no window id, so a fence
         arrival is attributed to the rank's last-closed window (the
         runtime dispatches a fence batch as close-all / fence-all /
         reopen-all, so the correlation is exact for the common
         single-window-per-fence shape; multi-window fence programs are
         a documented approximation). *)
  fence_arrivals : (Event.win_id, (int, unit) Hashtbl.t) Hashtbl.t;
      (* Distinct ranks whose fence arrival named the window; at
         [nprocs] the fence has completed and the window's weak trees
         clear — fence completion orders every rank's operations. *)
  coll_arrivals : (int, unit) Hashtbl.t;
      (* Distinct ranks inside the current Barrier/Allreduce. *)
  unflushed : (Event.win_id * int, unit) Hashtbl.t;
      (* (window, issuer) pairs with one-sided operations not yet
         completed by that issuer's flush / unlock / fence. A barrier
         orders ranks but completes nothing: it only clears a window's
         weak trees when no rank holds unflushed traffic on it
         (flush-then-barrier is the MiniVite-style sync idiom). *)
  clocks : Vclock.Dual.t array;
      (* Per-rank observed/weak clock pair, witness evidence only. *)
  observed_pairs : (site * site, unit) Hashtbl.t;
  predicted_pairs : (site * site, unit) Hashtbl.t;
  mutable predicted : Report.t list;  (* newest first; ids assigned on read *)
  mutable predicted_count : int;
}

type state = {
  nprocs : int;
  config : Config.t;
  mode : Tool.mode;
  flush_clears : bool;
  budget : Rma_store.Budget.t option;
      (* [None] = unbounded stores (see Governor.create). *)
  policy : policy;
  name : string;
  trees : tree Tree_table.t;  (* (space, window) *)
  routes : ((int * Event.win_id) * tree) list option array;
      (* rank -> the trees of [trees] a windowless local access of the
         rank enters, once computed ([windowless_routes]). *)
  epoch_closers : (Event.win_id, (int, unit) Hashtbl.t) Hashtbl.t;
      (* The DISTINCT ranks that closed an epoch on a window since the
         last global clear. The §5.1 protocol ends every epoch with an
         MPI_Reduce and a wait for pending remote-access notifications,
         so a window's trees are only cleared once EVERY rank has closed
         — otherwise a target would drop remote accesses from origins
         still inside their epoch. A per-window set (not a close-event
         count): one rank closing several epochs before the others close
         any must not reach [nprocs] on its own. *)
  mutable races : Report.t list;
  mutable race_count : int;
  predictive : predictive option;  (** [None] = observed-only, byte for byte. *)
}

let new_store ?budget policy =
  match policy with
  | Legacy -> L (Legacy_store.create ?budget ())
  | Contribution -> D (Disjoint_store.create ?budget ())
  | Fragmentation_only -> D (Disjoint_store.create ~merge:false ?budget ())
  | Order_blind -> D (Disjoint_store.create ~order_aware:false ?budget ())

let drop_routes st = Array.fill st.routes 0 (Array.length st.routes) None

(* The tree of [table] (observed or weak) under [key], created on first use. *)
let tree_in st table key =
  match Tree_table.find_opt table key with
  | Some t -> t
  | None ->
      let t =
        { store = new_store ?budget:st.budget st.policy;
          epoch_open = false; nodes_at_last_close = None; epoch_span = None }
      in
      Tree_table.replace table key t;
      (* Creation may resize the table, which reorders its buckets. *)
      if table == st.trees then drop_routes st;
      t

let tree_for st key = tree_in st st.trees key

(* Only a flip changes the rank's list: the key order is the table's. *)
let set_epoch_open st ~rank tree flag =
  if not (Bool.equal tree.epoch_open flag) then begin
    tree.epoch_open <- flag;
    if rank >= 0 && rank < Array.length st.routes then st.routes.(rank) <- None
  end

let obs_races = Obs.counter ~help:"Race reports recorded by the analyzer" "analyzer.races"

let obs_nodes_at_close =
  Obs.histogram ~unit_:"nodes" ~help:"Tree size sampled at each epoch close (Table 4 metric)"
    "analyzer.nodes_at_close"

let obs_epoch_close_ns =
  Obs.histogram ~unit_:"ns" ~help:"Wall time the analyzer spent handling each epoch close"
    "analyzer.epoch_close_ns"

let obs_window_clears =
  Obs.counter ~help:"Global window clears (all ranks closed)" "analyzer.window_clears"

let record_race st ~space ~win ~existing ~incoming ~sim_time ~provenance =
  let report = Report.make ~tool:st.name ~space ~win ~existing ~incoming ~sim_time ~provenance () in
  (match st.predictive with
  | Some p -> Hashtbl.replace p.observed_pairs (pair_key_of existing incoming) ()
  | None -> ());
  st.race_count <- st.race_count + 1;
  Obs.incr obs_races;
  if st.race_count <= Tool.max_reports then st.races <- report :: st.races;
  match st.mode with
  | Tool.Abort_on_race -> raise (Report.Race_abort report)
  | Tool.Collect -> ()

(* Provenance of a conflict inside one tree, without its race id: when
   the flight recorder is on, the tree's epoch and the original accesses
   behind each side's byte range. A predicted report gets its id only
   when races are read. *)
let conflict_provenance tree ~existing ~incoming =
  let degraded = store_degraded tree.store in
  match store_recorder tree.store with
  | None -> { Report.empty_provenance with Report.degraded = degraded }
  | Some r ->
      {
        Report.empty_provenance with
        Report.epoch = Some (Flight_recorder.current_epoch r);
        existing_history = Flight_recorder.history r existing.Access.interval;
        incoming_history = Flight_recorder.history r incoming.Access.interval;
        degraded;
      }

(* ---- Predictive (weak-order) half, DESIGN.md §15 ---- *)

let obs_predicted =
  Obs.counter ~help:"Predicted (schedulable) races recorded by the analyzer"
    "analyzer.predicted_races"

let weak_clear_window p win =
  Tree_table.iter (fun (_, w) t -> if w = win then store_clear t.store) p.weak_trees;
  let phase = Option.value (Hashtbl.find_opt p.weak_phase win) ~default:0 in
  Hashtbl.replace p.weak_phase win (phase + 1)

(* A conflict surfaced by a weak tree. [Race_rule.check_weak] excuses
   same-rank pairs (ordered by the rank's own completion edges under
   every schedule — or already observed, since a weak tree is only
   cleared when its observed counterpart also cleared); what survives is
   deduplicated against the observed reports and previously predicted
   pairs by canonical source-site pair, then recorded with a witness.
   Predicted races never abort: the observed run did NOT take the racing
   schedule, so there is nothing to stop. *)
let consider_predicted st p ~space ~win ~existing ~incoming ~sim_time ~prov_base =
  let order_aware =
    match st.policy with Legacy | Order_blind -> false | _ -> true
  in
  match Race_rule.check_weak ~order_aware ~existing ~incoming with
  | Race_rule.No_race | Race_rule.Race _ -> ()
  | Race_rule.Predicted _ ->
      let key = pair_key_of existing incoming in
      if (not (Hashtbl.mem p.observed_pairs key)) && not (Hashtbl.mem p.predicted_pairs key)
      then begin
        Hashtbl.replace p.predicted_pairs key ();
        let phase = Option.value (Hashtbl.find_opt p.weak_phase win) ~default:0 in
        let clock_of (a : Access.t) which =
          if a.Access.issuer >= 0 && a.Access.issuer < Array.length p.clocks then
            Vclock.components (which p.clocks.(a.Access.issuer))
          else []
        in
        let describe (a : Access.t) =
          Printf.sprintf "%s by rank %d at %s:%d"
            (Access_kind.to_string a.Access.kind)
            a.Access.issuer a.Access.debug.Debug_info.file a.Access.debug.Debug_info.line
        in
        let reorder =
          Printf.sprintf
            "hold rank %d before its next epoch close so the %s is still in flight when the %s \
             executes; no fence or fully flushed barrier on window %d separates the two accesses \
             (weak phase %d)"
            existing.Access.issuer (describe existing) (describe incoming) win phase
        in
        let witness =
          {
            Report.w_phase = phase;
            w_existing_clock = clock_of existing Vclock.Dual.weak;
            w_incoming_clock = clock_of incoming Vclock.Dual.weak;
            w_observed_existing = clock_of existing Vclock.Dual.observed;
            w_observed_incoming = clock_of incoming Vclock.Dual.observed;
            w_reorder = reorder;
          }
        in
        let provenance =
          { prov_base with Report.predicted = true; witness = Some witness }
        in
        let report =
          Report.make ~tool:st.name ~space ~win:(Some win) ~existing ~incoming ~sim_time
            ~provenance ()
        in
        p.predicted <- report :: p.predicted;
        p.predicted_count <- p.predicted_count + 1;
        Obs.incr obs_predicted
      end

let insert_into st key tree access ~sim_time =
  match store_insert tree.store access with
  | Store_intf.Inserted -> ()
  | Store_intf.Race_detected { existing; incoming } ->
      let space, win = key in
      let provenance =
        { (conflict_provenance tree ~existing ~incoming) with Report.id = st.race_count + 1 }
      in
      record_race st ~space ~win:(Some win) ~existing ~incoming ~sim_time ~provenance

(* Weak-tree counterpart of [insert_into]: same store machinery, run
   right after the observed insert of the same access, so the observed
   race of a pair is always recorded before the weak conflict — the
   dedup in [consider_predicted] relies on that. *)
let weak_insert_into st p key access ~sim_time =
  let tree = tree_in st p.weak_trees key in
  match store_insert tree.store access with
  | Store_intf.Inserted -> ()
  | Store_intf.Race_detected { existing; incoming } ->
      let space, win = key in
      let prov_base = conflict_provenance tree ~existing ~incoming in
      consider_predicted st p ~space ~win ~existing ~incoming ~sim_time ~prov_base

(* [insert_into], then the weak-tree counterpart under predictive mode. *)
let insert_both st key tree access ~sim_time =
  insert_into st key tree access ~sim_time;
  match st.predictive with Some p -> weak_insert_into st p key access ~sim_time | None -> ()

(* The trees a local access that names no window enters: every open
   epoch of its rank (the analyzer only collects accesses "contained
   within each epoch", §5.1), as [Tree_table.fold] lists them. The list
   is kept per rank until a tree is created, one of the rank's epoch
   flags flips or the tool resets; it is the fold's own output, so the
   order of inserts into several trees, and with it race ids, stays the
   fold's. *)
let windowless_routes st space =
  let fold () =
    Tree_table.fold
      (fun ((sp, _) as key) t acc -> if sp = space && t.epoch_open then (key, t) :: acc else acc)
      st.trees []
  in
  if space >= 0 && space < Array.length st.routes then (
    match st.routes.(space) with
    | Some routes -> routes
    | None ->
        let routes = fold () in
        st.routes.(space) <- Some routes;
        routes)
  else fold ()

let on_access st (a : Event.access_event) =
  if not a.Event.relevant then 0.0 (* filtered out by the alias analysis *)
  else begin
    let access = a.Event.access and space = a.Event.space and sim_time = a.Event.sim_time in
    if Access_kind.is_rma access.Access.kind then begin
      (match a.Event.win with
      | Some w ->
          (* The issuer now has uncompleted one-sided traffic on the
             window, until its next flush / unlock / fence: a barrier
             reached before that cannot weakly synchronise the window. *)
          (match st.predictive with
          | Some p -> Hashtbl.replace p.unflushed (w, access.Access.issuer) ()
          | None -> ());
          let key = (space, w) in
          insert_both st key (tree_for st key) access ~sim_time
      | None -> ());
      (* The origin's notification MPI_Send towards the target (§5.1):
         charged on the target-side event of cross-rank operations. *)
      if space <> access.Access.issuer then Config.message_cost st.config ~bytes_count:32
      else 0.0
    end
    else begin
      (match a.Event.win with
      | Some w -> (
          (* The window containing it, when its epoch is open. *)
          let key = (space, w) in
          match Tree_table.find_opt st.trees key with
          | Some tree when tree.epoch_open -> insert_both st key tree access ~sim_time
          | _ -> ())
      | None -> (
          let routes = windowless_routes st space in
          List.iter (fun (key, tree) -> insert_into st key tree access ~sim_time) routes;
          match st.predictive with
          | Some p -> List.iter (fun (key, _) -> weak_insert_into st p key access ~sim_time) routes
          | None -> ()));
      0.0
    end
  end

(* True-synchronization edges for the weak order (everything else —
   epoch closes included — is schedule-induced and leaves weak trees
   alone). A fence completion orders every rank's operations on its
   window; the fence [Collective] event carries no window id, so the
   arrival is attributed to the rank's last-closed window (exact for the
   runtime's close-all / fence-all / reopen-all dispatch). A barrier or
   allreduce orders ranks but completes no one-sided traffic: it clears
   a window only when no rank holds unflushed operations on it — the
   flush-then-barrier idiom MiniVite uses. *)
let predictive_collective st p ~kind ~rank =
  match kind with
  | Event.Fence -> (
      match Hashtbl.find_opt p.last_closed rank with
      | None -> ()
      | Some win ->
          let arrivals =
            match Hashtbl.find_opt p.fence_arrivals win with
            | Some set -> set
            | None ->
                let set = Hashtbl.create st.nprocs in
                Hashtbl.replace p.fence_arrivals win set;
                set
          in
          Hashtbl.replace arrivals rank ();
          if Hashtbl.length arrivals >= st.nprocs then begin
            Hashtbl.remove p.fence_arrivals win;
            weak_clear_window p win;
            Vclock.Dual.sync_step p.clocks
          end)
  | Event.Barrier | Event.Allreduce ->
      Hashtbl.replace p.coll_arrivals rank ();
      if Hashtbl.length p.coll_arrivals >= st.nprocs then begin
        Hashtbl.reset p.coll_arrivals;
        let wins = Hashtbl.create 4 in
        Tree_table.iter (fun (_, w) _ -> Hashtbl.replace wins w ()) p.weak_trees;
        Hashtbl.iter
          (fun w () ->
            let flushed = ref true in
            for r = 0 to st.nprocs - 1 do
              if Hashtbl.mem p.unflushed (w, r) then flushed := false
            done;
            if !flushed then weak_clear_window p w)
          wins;
        if Hashtbl.length p.unflushed = 0 then Vclock.Dual.sync_step p.clocks
      end

let observer st event =
  match event with
  | Event.Access a -> on_access st a
  | Event.Epoch_opened { win; rank; sim_time } ->
      let tree = tree_for st (rank, win) in
      set_epoch_open st ~rank tree true;
      store_note_epoch tree.store;
      if Obs.is_enabled () then begin
        tree.epoch_span <-
          Obs.start_span ~cat:"epoch" ~pid:(Obs.sim_pid ()) ~tid:rank ~at:sim_time
            (Printf.sprintf "epoch win=%d" win);
        Events.emit
          ~span_id:(Obs.span_id tree.epoch_span)
          ~kv:
            [ ("event", "epoch_open"); ("win", string_of_int win); ("rank", string_of_int rank) ]
          Events.Debug "analyzer"
      end;
      0.0
  | Event.Epoch_closed { win; rank; sim_time } ->
      (* Wall time of the whole close handling (finger flush, journal,
         window clear); timed only under Obs so the hot path stays
         clock-free. *)
      let close_t0 = if Obs.is_enabled () then Rma_util.Timer.now () else 0.0 in
      let tree = tree_for st (rank, win) in
      set_epoch_open st ~rank tree false;
      store_flush_finger tree.store;
      let nodes = store_size tree.store in
      tree.nodes_at_last_close <- Some nodes;
      if Obs.is_enabled () then begin
        Events.emit
          ~span_id:(Obs.span_id tree.epoch_span)
          ~kv:
            [
              ("event", "epoch_close");
              ("win", string_of_int win);
              ("rank", string_of_int rank);
              ("nodes", string_of_int nodes);
            ]
          Events.Debug "analyzer";
        Obs.finish_span ~at:sim_time ~args:[ ("nodes", string_of_int nodes) ] tree.epoch_span;
        tree.epoch_span <- None;
        Obs.observe_int obs_nodes_at_close nodes
      end;
      let closers =
        match Hashtbl.find_opt st.epoch_closers win with
        | Some set -> set
        | None ->
            let set = Hashtbl.create st.nprocs in
            Hashtbl.replace st.epoch_closers win set;
            set
      in
      Hashtbl.replace closers rank ();
      if Hashtbl.length closers >= st.nprocs then begin
        Hashtbl.remove st.epoch_closers win;
        Obs.incr obs_window_clears;
        (* NOT mirrored on the weak trees: this point depends on the
           schedule the run took (unlock_all is not collective), which is
           exactly the gap the predictive analysis exists to close. *)
        Tree_table.iter (fun (_, w) t -> if w = win then store_clear t.store) st.trees
      end;
      (match st.predictive with
      | Some p ->
          Hashtbl.replace p.last_closed rank win;
          (* The rank's own unlock/complete finishes its one-sided
             operations on the window. *)
          Hashtbl.remove p.unflushed (win, rank);
          if rank >= 0 && rank < Array.length p.clocks then
            Vclock.Dual.local_step p.clocks.(rank) ~rank
      | None -> ());
      (* The end-of-epoch MPI_Reduce counting remote accesses (§5.1). *)
      let cost = Config.collective_cost st.config ~nprocs:st.nprocs ~bytes_count:8 in
      if close_t0 > 0.0 then
        Obs.observe obs_epoch_close_ns ((Rma_util.Timer.now () -. close_t0) *. 1e9);
      cost
  | Event.Flushed { win; rank; _ } ->
      (* Deliberately untreated by default: MPI_Win_flush only orders the
         caller's operations, so clearing the tree here causes false
         negatives for third-party origins (§6(2)). [flush_clears] exists
         as the negative ablation demonstrating exactly that. *)
      if st.flush_clears then begin
        match Tree_table.find_opt st.trees (rank, win) with
        | Some tree -> store_clear tree.store
        | None -> ()
      end;
      (* For the weak order a flush DOES matter — not as a clear (it
         orders only the caller's operations, §6(2)) but as completion:
         the caller no longer holds unflushed traffic on the window, so
         a subsequent barrier can weakly synchronise it. *)
      (match st.predictive with
      | Some p -> Hashtbl.remove p.unflushed (win, rank)
      | None -> ());
      0.0
  | Event.Collective { kind; rank; _ } ->
      (match st.predictive with
      | Some p -> predictive_collective st p ~kind ~rank
      | None -> ());
      0.0
  | Event.Win_created _ | Event.Win_freed _ | Event.Finished _ -> 0.0

let bst_summary st () =
  Tree_table.fold
    (fun _ tree acc ->
      let stats = store_stats tree.store in
      let final =
        match tree.nodes_at_last_close with
        | Some n when not tree.epoch_open -> n
        | _ -> stats.Store_intf.nodes
      in
      {
        Tool.stores = acc.Tool.stores + 1;
        nodes_final_total = acc.Tool.nodes_final_total + final;
        nodes_peak_total = acc.Tool.nodes_peak_total + stats.Store_intf.peak_nodes;
        inserts_total = acc.Tool.inserts_total + stats.Store_intf.inserts;
        fragments_total = acc.Tool.fragments_total + stats.Store_intf.fragments_created;
        merges_total = acc.Tool.merges_total + stats.Store_intf.merges_performed;
        degraded_drops_total = acc.Tool.degraded_drops_total + stats.Store_intf.degraded_drops;
      })
    st.trees Tool.empty_bst_summary

let make_state ~nprocs ?(config = Config.default) ?(mode = Tool.Abort_on_race)
    ?(flush_clears = false) ?budget ?(predictive = false) policy =
  {
    nprocs;
    config;
    mode;
    flush_clears;
    budget;
    policy;
    name = policy_name policy;
    trees = Tree_table.create 16;
    routes = Array.make nprocs None;
    epoch_closers = Hashtbl.create 4;
    races = [];
    race_count = 0;
    predictive =
      (if not predictive then None
       else
         Some
           {
             weak_trees = Tree_table.create 16;
             weak_phase = Hashtbl.create 4;
             last_closed = Hashtbl.create 8;
             fence_arrivals = Hashtbl.create 4;
             coll_arrivals = Hashtbl.create 8;
             unflushed = Hashtbl.create 16;
             clocks = Array.init nprocs (fun _ -> Vclock.Dual.create ());
             observed_pairs = Hashtbl.create 16;
             predicted_pairs = Hashtbl.create 16;
             predicted = [];
             predicted_count = 0;
           });
  }

(* Predicted reports in detection order, re-filtered against the pairs
   the observed analysis ended up reporting (a pair predicted early in
   the run may be observed later, e.g. across loop iterations; observed
   wins) and numbered after the observed races. Recomputed on every
   read — reads are idempotent. *)
let predicted_reports st =
  match st.predictive with
  | None -> []
  | Some p ->
      List.rev p.predicted
      |> List.filter (fun r ->
             not (Hashtbl.mem p.observed_pairs (pair_key_of r.Report.existing r.Report.incoming)))
      |> List.mapi (fun i r ->
             { r with Report.provenance = { r.Report.provenance with Report.id = st.race_count + i + 1 } })

let tool_of_state st =
  {
    Tool.name = st.name;
    observer = observer st;
    races = (fun () -> List.rev st.races @ predicted_reports st);
    race_count = (fun () -> st.race_count + List.length (predicted_reports st));
    bst_summary = bst_summary st;
    reset =
      (fun () ->
        Tree_table.reset st.trees;
        drop_routes st;
        Hashtbl.reset st.epoch_closers;
        st.races <- [];
        st.race_count <- 0;
        match st.predictive with
        | None -> ()
        | Some p ->
            Tree_table.reset p.weak_trees;
            Hashtbl.reset p.weak_phase;
            Hashtbl.reset p.last_closed;
            Hashtbl.reset p.fence_arrivals;
            Hashtbl.reset p.coll_arrivals;
            Hashtbl.reset p.unflushed;
            Array.iter Vclock.Dual.reset p.clocks;
            Hashtbl.reset p.observed_pairs;
            Hashtbl.reset p.predicted_pairs;
            p.predicted <- [];
            p.predicted_count <- 0);
  }

let create ~nprocs ?config ?mode ?flush_clears ?budget ?predictive policy =
  tool_of_state (make_state ~nprocs ?config ?mode ?flush_clears ?budget ?predictive policy)
