(* A process can now host many logical runs at once (the serve daemon:
   one per client session) while the journal keeps a single "current"
   run_id. This registry is the observability-side record of that
   multiplexing: whoever owns a run registers it here so /metrics can
   label one series per live run instead of clobbering the single
   rma_run_info gauge. *)

type state = Queued | Active | Closed of string

let state_label = function
  | Queued -> "queued"
  | Active -> "active"
  | Closed reason -> "closed:" ^ reason

type entry = { run_id : string; session : string; mutable state : state }

let mu = Mutex.create ()
let live : (string, entry) Hashtbl.t = Hashtbl.create 16

(* Closed sessions stay visible to one more scrape cycle via a bounded
   FIFO so an operator can see how a session ended; beyond the cap the
   oldest closure ages out. *)
let recent_cap = 64
let recent_closed : entry Queue.t = Queue.create ()

let locked f =
  Mutex.lock mu;
  match f () with
  | v ->
      Mutex.unlock mu;
      v
  | exception e ->
      Mutex.unlock mu;
      raise e

let register ~run_id ~session ~state =
  locked (fun () -> Hashtbl.replace live run_id { run_id; session; state })

let set_state ~run_id state =
  locked (fun () ->
      match Hashtbl.find_opt live run_id with
      | Some e -> (
          e.state <- state;
          match state with
          | Closed _ ->
              Hashtbl.remove live run_id;
              Queue.push e recent_closed;
              if Queue.length recent_closed > recent_cap then ignore (Queue.pop recent_closed)
          | Queued | Active -> ())
      | None -> ())

let registered_count () = locked (fun () -> Hashtbl.length live)

let snapshot () =
  locked (fun () ->
      let render e = (e.run_id, e.session, state_label e.state) in
      let open_sessions = Hashtbl.fold (fun _ e acc -> render e :: acc) live [] in
      let closed = Queue.fold (fun acc e -> render e :: acc) [] recent_closed in
      List.sort compare open_sessions @ List.rev closed)

let reset () =
  locked (fun () ->
      Hashtbl.reset live;
      Queue.clear recent_closed)
