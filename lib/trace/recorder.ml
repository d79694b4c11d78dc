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

let save t ~path = Out_channel.with_open_text path (fun oc -> Codec.write_all oc (events t))

let load ~path =
  In_channel.with_open_text path (fun ic ->
      Result.map_error Codec.error_to_string (Codec.read_all ic))

let replay events ~tool =
  tool.Rma_analysis.Tool.reset ();
  List.iter (fun e -> Result.iter_error failwith (Ingest.event tool e)) events;
  tool.Rma_analysis.Tool.races ()
