open Rma_access
module Flight_recorder = Rma_store.Flight_recorder

type witness = {
  w_phase : int;
  w_existing_clock : (int * int) list;
  w_incoming_clock : (int * int) list;
  w_observed_existing : (int * int) list;
  w_observed_incoming : (int * int) list;
  w_reorder : string;
}

type provenance = {
  id : int;
  epoch : int option;
  vclock : (int * int) list option;
  existing_history : Flight_recorder.origin list;
  incoming_history : Flight_recorder.origin list;
  degraded : bool;
  predicted : bool;
  witness : witness option;
}

let empty_provenance =
  {
    id = 0;
    epoch = None;
    vclock = None;
    existing_history = [];
    incoming_history = [];
    degraded = false;
    predicted = false;
    witness = None;
  }

type t = {
  tool : string;
  space : int;
  win : Mpi_sim.Event.win_id option;
  existing : Access.t;
  incoming : Access.t;
  sim_time : float;
  provenance : provenance;
}

exception Race_abort of t

let make ~tool ~space ~win ~existing ~incoming ~sim_time ?(provenance = empty_provenance) () =
  { tool; space; win; existing; incoming; sim_time; provenance }

let to_message t =
  Printf.sprintf
    "Error when inserting memory access of type %s from file %s:%d with already inserted \
     interval of type %s from file %s:%d. The program will be exiting now with MPI_Abort."
    (Access_kind.to_string t.incoming.Access.kind)
    t.incoming.Access.debug.Debug_info.file t.incoming.Access.debug.Debug_info.line
    (Access_kind.to_string t.existing.Access.kind)
    t.existing.Access.debug.Debug_info.file t.existing.Access.debug.Debug_info.line

let pp fmt t =
  Format.fprintf fmt "[%s] rank %d%s: %s" t.tool t.space
    (match t.win with None -> "" | Some w -> Printf.sprintf " (window %d)" w)
    (to_message t)

let matrix_cell t =
  Printf.sprintf "%s x %s (%s)"
    (Access_kind.to_string t.existing.Access.kind)
    (Access_kind.to_string t.incoming.Access.kind)
    (if t.existing.Access.issuer <> t.incoming.Access.issuer then "different processes"
     else if t.existing.Access.thread.Access.tid = t.incoming.Access.thread.Access.tid then
       "same process"
     else "same process, different threads")

let contributing_debugs t =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  let add (d : Debug_info.t) =
    let key = (d.Debug_info.file, d.Debug_info.line, d.Debug_info.operation) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      out := d :: !out
    end
  in
  add t.existing.Access.debug;
  add t.incoming.Access.debug;
  List.iter
    (fun (o : Flight_recorder.origin) -> add o.Flight_recorder.access.Access.debug)
    (t.provenance.existing_history @ t.provenance.incoming_history);
  List.rev !out
