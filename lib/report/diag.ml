module Obs = Rma_obs.Obs
module Events = Rma_obs.Events
module Run_config = Rma_config.Run_config

type opts = {
  obs_out : string option;
  obs_summary : bool;
  obs_prometheus : string option;
  obs_events : string option;
  obs_level : string option;
  races_json : string option;
  races_sarif : string option;
  budget : string option;
  predictive : bool;
  interleave_seed : int option;
}

let default =
  {
    obs_out = None;
    obs_summary = false;
    obs_prometheus = None;
    obs_events = None;
    obs_level = None;
    races_json = None;
    races_sarif = None;
    budget = None;
    predictive = false;
    interleave_seed = None;
  }

let wants_races opts = opts.races_json <> None || opts.races_sarif <> None

(* Any observability output (trace, summary, Prometheus, journal)
   requested: the condition under which [with_obs] enables Obs. The
   journal path is the run's, where the environment may have set it. *)
let wants_obs opts run =
  opts.obs_out <> None || opts.obs_summary || opts.obs_prometheus <> None
  || run.Run_config.obs_events <> None

(* A bad value is a usage error, not a crash mid-run: report and exit
   with the code the CLI has always used for spec errors. *)
let usage_error ~prog msg =
  Printf.eprintf "%s: %s\n%!" prog msg;
  exit 124

(* The environment once, then the flags over it: a flag beats its env
   twin because it is applied last, through the same parser. *)
let run_config ~prog opts =
  let flags =
    (if opts.predictive then [ ("predictive", "true") ] else [])
    @ (match opts.interleave_seed with
      | Some s -> [ ("interleave_seed", string_of_int s) ]
      | None -> [])
    @ match opts.budget with Some spec -> [ ("budget", spec) ] | None -> []
  in
  let run =
    let label key = "--" ^ String.map (function '_' -> '-' | c -> c) key in
    let parsed = Run_config.of_env () in
    match Result.bind parsed (fun base -> Run_config.of_fields ~base ~label flags) with
    | Ok run -> run
    | Error msg -> usage_error ~prog msg
  in
  let run =
    match opts.obs_level with
    | None -> run
    | Some s -> (
        match Events.level_of_string s with
        | Some l -> { run with Run_config.obs_level = l }
        | None ->
            usage_error ~prog
              (Printf.sprintf "bad --obs-level %s: expected debug, info, warn or error"
                 (Rma_util.Lines.quote s)))
  in
  match opts.obs_events with Some _ as p -> { run with Run_config.obs_events = p } | None -> run

(* The obs half of the bracket. Telemetry is sampled here, where the
   metrics are read, so every tool's run exports its GC/RSS gauges. *)
let with_obs opts run f =
  let active = wants_obs opts run in
  if active then Obs.enable ();
  Events.set_level run.Run_config.obs_level;
  Option.iter Events.set_sink run.Run_config.obs_events;
  let export () =
    if active then begin
      Rma_obs.Telemetry.sample ();
      let write_file what write path =
        try
          write ~path ();
          Printf.eprintf "obs: wrote %s to %s\n%!" what path
        with Sys_error msg -> Printf.eprintf "obs: cannot write %s: %s\n%!" what msg
      in
      Option.iter (write_file "Chrome trace" Rma_obs.Chrome_trace.write) opts.obs_out;
      Option.iter (write_file "Prometheus metrics" Rma_obs.Prometheus.write) opts.obs_prometheus;
      Option.iter
        (fun path -> Printf.eprintf "obs: wrote event journal to %s\n%!" path)
        run.Run_config.obs_events;
      Events.close ();
      if opts.obs_summary then print_string (Rma_obs.Summary.to_string ())
    end
  in
  Fun.protect ~finally:export f

let renumber reports =
  List.mapi
    (fun i r ->
      let module Report = Rma_analysis.Report in
      { r with Report.provenance = { r.Report.provenance with Report.id = i + 1 } })
    reports

(* [f] gets the run's configuration and returns the run's race reports;
   exports happen afterwards, the obs ones even if [f] raises. The
   flight recorder is process-wide and snapshotted at store creation,
   so it is switched on before [f]. *)
let with_diag ?(prog = "rma_race") ?(generator = "rma_race") ?workload opts f =
  let run = run_config ~prog opts in
  if wants_races opts then Rma_store.Flight_recorder.enable ();
  let run_id = if wants_obs opts run then Some (Events.run_id ()) else None in
  (* The run_summary record must land before the export closes the
     sink, hence inside the bracket, after renumbering. *)
  let reports =
    with_obs opts run (fun () ->
        (* Journal the run's identity: what [rma_race obs replay]
           rebuilds the run from — workload name and parameters, then
           the whole run configuration in canonical form (so the
           journal, not the command line, is the source of truth for
           the seed). *)
        (match workload with
        | Some (name, params) ->
            let kv =
              [ ("event", "run_start"); ("workload", name) ] @ params @ Run_config.to_fields run
            in
            Events.emit ~kv Events.Info "diag"
        | None -> ());
        let reports = renumber (f run) in
        (* The journal's verdict record: what [obs replay] compares a
           re-run against. A thunk that raises leaves no run_summary —
           exactly right, the original run has no verdict either. *)
        Events.emit
          ~kv:
            [
              ("event", "run_summary");
              ("races", string_of_int (List.length reports));
              ("digest", Race_export.verdict_digest reports);
            ]
          Events.Info "diag";
        reports)
  in
  let write_races what write path =
    try
      write ~path ?run_id ~generator reports;
      Printf.eprintf "races: wrote %s (%d reports) to %s\n%!" what (List.length reports) path
    with Sys_error msg -> Printf.eprintf "races: cannot write %s: %s\n%!" what msg
  in
  Option.iter (write_races "JSON" Race_export.write_json) opts.races_json;
  Option.iter (write_races "SARIF" Race_export.write_sarif) opts.races_sarif
