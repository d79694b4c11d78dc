module Obs = Rma_obs.Obs
module Events = Rma_obs.Events

type opts = {
  obs_out : string option;
  obs_summary : bool;
  obs_prometheus : string option;
  obs_events : string option;
  obs_level : string option;
  obs_serve : int option;
  obs_sample : int;
  races_json : string option;
  races_sarif : string option;
  jobs : int option;
  fault_plan : string option;
  budget : string option;
  predictive : bool;
}

let default =
  {
    obs_out = None;
    obs_summary = false;
    obs_prometheus = None;
    obs_events = None;
    obs_level = None;
    obs_serve = None;
    obs_sample = 1;
    races_json = None;
    races_sarif = None;
    jobs = None;
    fault_plan = None;
    budget = None;
    predictive = false;
  }

let wants_races opts = opts.races_json <> None || opts.races_sarif <> None

let wants_obs opts =
  opts.obs_out <> None || opts.obs_summary || opts.obs_prometheus <> None
  || opts.obs_events <> None || opts.obs_serve <> None

(* A bad spec is a usage error, not a crash mid-run: report and exit
   with the code the CLI has always used for spec errors. *)
let usage_error ~prog what spec msg =
  Printf.eprintf "%s: bad %s %S: %s\n%!" prog what spec msg;
  exit 124

(* [f] returns the run's race reports; exports happen afterwards, the
   obs ones even if [f] raises. Everything that stores or engines
   snapshot at tool creation (flight recorder, shard count, fault
   plan, budget) must be applied before [f] runs, which is
   why all the knobs live here and not in the exporters. *)
let with_diag ?(prog = "rma_race") ?(generator = "rma_race") ?workload opts f =
  let active = wants_obs opts in
  if active then begin
    Obs.enable ();
    Obs.set_sampling ~keep_one_in:(max 1 opts.obs_sample)
  end;
  (* Environment first, explicit flags override. *)
  Events.configure_from_env ();
  Option.iter
    (fun s ->
      match Events.level_of_string s with
      | Some l -> Events.set_level l
      | None -> usage_error ~prog "--obs-level" s "expected debug, info, warn or error")
    opts.obs_level;
  Option.iter Events.set_sink opts.obs_events;
  if wants_races opts then Rma_store.Flight_recorder.enable ();
  (* Only an explicit --predictive forces the default on; left false,
     the RMA_PREDICTIVE environment variable still decides. *)
  if opts.predictive then Rma_analysis.Rma_analyzer.set_default_predictive true;
  Option.iter Rma_par.set_default_jobs opts.jobs;
  Option.iter
    (fun spec ->
      match Rma_fault.Plan.of_spec spec with
      | Ok plan -> Rma_fault.install plan
      | Error msg -> usage_error ~prog "--fault-plan" spec msg)
    opts.fault_plan;
  Option.iter
    (fun spec ->
      match Rma_fault.Budget.of_spec spec with
      | Ok budget -> Rma_fault.Budget.set_default (Some budget)
      | Error msg -> usage_error ~prog "--budget" spec msg)
    opts.budget;
  (* Every knob is applied: journal the run's identity. The record is
     what [rma_race obs replay] reconstructs the run from — workload
     name and parameters, effective shard count, and the fault plan and
     budget re-serialised in canonical spec form (so the journal, not
     the command line, is the source of truth for the seed). *)
  (match workload with
  | Some (name, params) ->
      let kv =
        [ ("event", "run_start"); ("workload", name) ]
        @ params
        @ [ ("jobs", string_of_int (Rma_par.default_jobs ())) ]
        @ (match Rma_fault.plan () with
          | Some p -> [ ("fault", Rma_fault.Plan.to_spec p) ]
          | None -> [])
        @
        match Rma_fault.Budget.default () with
        | Some b -> [ ("budget", Rma_fault.Budget.to_spec b) ]
        | None -> []
      in
      Events.emit ~kv Events.Info "diag"
  | None -> ());
  let server =
    Option.map
      (fun port ->
        let s = Rma_obs.Serve.start ~port in
        Printf.eprintf "obs: serving /metrics /healthz /events on 127.0.0.1:%d\n%!"
          (Rma_obs.Serve.port s);
        s)
      opts.obs_serve
  in
  let obs_export () =
    Option.iter Rma_obs.Serve.stop server;
    if active then begin
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
        opts.obs_events;
      Events.close ();
      if opts.obs_summary then print_string (Rma_obs.Summary.to_string ())
    end
  in
  (* The run id exported with the races must be the journal's, and the
     run_summary record must land before the finally closes the sink —
     hence both live inside the protected thunk, after renumbering.
     Ids are per tool run; a subcommand aggregating several runs (suite)
     would export duplicates, so renumber to the export's own 1..n —
     identity for single-run subcommands, whose stored reports are
     already sequential. *)
  let renumber reports =
    List.mapi
      (fun i r ->
        let module Report = Rma_analysis.Report in
        { r with Report.provenance = { r.Report.provenance with Report.id = i + 1 } })
      reports
  in
  let run_id = if active then Some (Events.run_id ()) else None in
  let finished = ref None in
  Fun.protect ~finally:obs_export (fun () ->
      let reports = renumber (f ()) in
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
      finished := Some reports);
  let reports = match !finished with Some r -> r | None -> [] in
  let write_races what write path =
    try
      write ~path ?run_id ~generator reports;
      Printf.eprintf "races: wrote %s (%d reports) to %s\n%!" what (List.length reports) path
    with Sys_error msg -> Printf.eprintf "races: cannot write %s: %s\n%!" what msg
  in
  Option.iter (write_races "JSON" Race_export.write_json) opts.races_json;
  Option.iter (write_races "SARIF" Race_export.write_sarif) opts.races_sarif
