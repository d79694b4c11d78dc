type mode = Abort_on_race | Collect

type bst_summary = {
  stores : int;
  nodes_final_total : int;
  nodes_peak_total : int;
  inserts_total : int;
  fragments_total : int;
  merges_total : int;
  degraded_drops_total : int;
}

let empty_bst_summary =
  {
    stores = 0;
    nodes_final_total = 0;
    nodes_peak_total = 0;
    inserts_total = 0;
    fragments_total = 0;
    merges_total = 0;
    degraded_drops_total = 0;
  }

type t = {
  name : string;
  observer : Mpi_sim.Event.observer;
  races : unit -> Report.t list;
  race_count : unit -> int;
  bst_summary : unit -> bst_summary;
  reset : unit -> unit;
}

let flagged t = t.race_count () > 0

let max_reports = 1000

let stored_races t = List.length (t.races ())

let dropped_races t = max 0 (t.race_count () - stored_races t)

let baseline =
  {
    name = "Baseline";
    observer = Mpi_sim.Event.null_observer;
    races = (fun () -> []);
    race_count = (fun () -> 0);
    bst_summary = (fun () -> empty_bst_summary);
    reset = (fun () -> ());
  }
