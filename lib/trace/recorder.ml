type t = { mutable events : Mpi_sim.Event.event list; mutable count : int }

let create () = { events = []; count = 0 }

let record t e =
  t.events <- e :: t.events;
  t.count <- t.count + 1

let observer t e =
  record t e;
  0.0

let tee t inner e =
  record t e;
  inner e

let events t = List.rev t.events

let length t = t.count

let clear t =
  t.events <- [];
  t.count <- 0

let save ?faults t ~path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Codec.write_all ?faults oc (events t))

let load ~path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> Result.map_error Codec.error_to_string (Codec.read_all ic))

let replay events ~tool =
  tool.Rma_analysis.Tool.reset ();
  (try List.iter (fun e -> ignore (tool.Rma_analysis.Tool.observer e)) events
   with Rma_analysis.Report.Race_abort _ -> ());
  tool.Rma_analysis.Tool.races ()
