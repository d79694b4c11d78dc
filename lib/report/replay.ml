module Events = Rma_obs.Events
module Tool = Rma_analysis.Tool
module Toolbox = Rma_analysis.Toolbox
module Run_config = Rma_config.Run_config

type plan = {
  r_run_id : string;
  r_workload : string;
  r_params : (string * string) list;
  r_config : Run_config.t;
  r_races : int option;
  r_digest : string option;
}

let ( let* ) = Result.bind
let kv_find k e = List.assoc_opt k e.Events.kv
let is_event name e = kv_find "event" e = Some name

let extract events =
  match List.find_opt (fun e -> e.Events.component = "diag" && is_event "run_start" e) events with
  | None ->
      Error
        "journal has no run_start record — not a diagnosed single-workload run, or truncated \
         before the header landed"
  | Some start -> (
      (* A run_start written while the analyzer still had a sharded
         engine carries a [jobs] key, and one written while trace writes
         took a fault plan a [fault] key: neither is a setting or a
         workload parameter any more. *)
      let reserved = "event" :: "workload" :: "jobs" :: "fault" :: Run_config.keys in
      match (kv_find "workload" start, Run_config.of_fields start.Events.kv) with
      | None, _ -> Error "run_start record lacks a workload name"
      | _, Error msg -> Error ("run_start record: " ^ msg)
      | Some workload, Ok config ->
          let summary =
            List.find_opt (fun e -> e.Events.component = "diag" && is_event "run_summary" e) events
          in
          Ok
            {
              r_run_id = start.Events.run_id;
              r_workload = workload;
              r_params =
                List.filter (fun (k, _) -> not (List.mem k reserved)) start.Events.kv;
              r_config = config;
              r_races = Option.bind summary (fun e -> Option.bind (kv_find "races" e) int_of_string_opt);
              r_digest = Option.bind summary (kv_find "digest");
            })

let describe p =
  let c = p.r_config in
  Printf.sprintf "replay of run %s: workload %s%s%s, budget %s\noriginal run: %s\n"
    p.r_run_id p.r_workload
    (match p.r_params with
    | [] -> ""
    | ps -> " (" ^ String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) ps) ^ ")")
    (if c.Run_config.predictive then ", predictive" else "")
    (Option.fold ~none:"none" ~some:Rma_store.Budget.to_spec c.Run_config.budget)
    (match (p.r_races, p.r_digest) with
    | Some n, Some d -> Printf.sprintf "%d race report%s, digest %s" n (if n = 1 then "" else "s") d
    | _ -> "no run_summary (the run did not finish)")

type outcome = { o_races : int; o_digest : string; o_match : bool option }

(* Mirror of the CLI's tool construction: every diagnosed workload run
   is built from the same base config (overhead scale 2.0, Figure 10's
   operating point) and the journaled run configuration. *)
let build_thunk p =
  let run = p.r_config in
  let param k = List.assoc_opt k p.r_params in
  let int_param k ~default =
    match param k with
    | None -> Ok default
    | Some s -> (
        match int_of_string_opt s with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "run_start parameter %s=%S is not an integer" k s))
  in
  let* tool_kind =
    match param "tool" with
    | None -> Ok Toolbox.Contribution
    | Some s -> (
        match Toolbox.of_slug s with
        | Some k -> Ok k
        | None -> Error (Printf.sprintf "run_start names unknown tool %S" s))
  in
  let config = { Mpi_sim.Config.default with Mpi_sim.Config.analysis_overhead_scale = 2.0 } in
  let make_tool ~nprocs = Harness.make_tool ~run tool_kind ~nprocs ~config in
  let observer tool =
    match tool_kind with Toolbox.Baseline -> None | _ -> Some tool.Tool.observer
  in
  match p.r_workload with
  | "cfd" ->
      let* nprocs = int_param "ranks" ~default:12 in
      let* seed = int_param "seed" ~default:42 in
      let* iterations = int_param "iterations" ~default:50 in
      let* cells = int_param "cells" ~default:432 in
      Ok
        (fun () ->
          let params =
            { Cfd_proxy.Halo.default_params with Cfd_proxy.Halo.iterations; cells_per_chunk = cells }
          in
          let tool = make_tool ~nprocs in
          let _ = Cfd_proxy.Halo.run params ~nprocs ~seed ~config ?observer:(observer tool) () in
          tool.Tool.races ())
  | "minivite" ->
      let* nprocs = int_param "ranks" ~default:32 in
      let* seed = int_param "seed" ~default:42 in
      let* vertices = int_param "vertices" ~default:64_000 in
      let inject = param "inject" = Some "true" in
      Ok
        (fun () ->
          let params =
            {
              Minivite.Louvain.default_params with
              Minivite.Louvain.graph =
                { Minivite.Graph.default_params with Minivite.Graph.n_vertices = vertices };
              inject_race = inject;
            }
          in
          let tool = make_tool ~nprocs in
          let _ = Minivite.Louvain.run params ~nprocs ~seed ~config ?observer:(observer tool) () in
          tool.Tool.races ())
  | "code" -> (
      match param "code" with
      | None -> Error "run_start for a code workload lacks its code parameter"
      | Some name -> (
          match Rma_microbench.Scenario.find name with
          | None -> Error (Printf.sprintf "run_start names unknown microbenchmark %S" name)
          | Some scenario ->
              Ok
                (fun () ->
                  let tool = make_tool ~nprocs:3 in
                  (Rma_microbench.Runner.run ~tool scenario).Rma_microbench.Runner.reports)))
  | "kernel" -> (
      match param "kernel" with
      | None -> Error "run_start for a kernel workload lacks its kernel parameter"
      | Some name -> (
          match Rma_microbench.Scenario.Kernel.find name with
          | None -> Error (Printf.sprintf "run_start names unknown kernel %S" name)
          | Some k ->
              let* seed = int_param "seed" ~default:42 in
              Ok
                (fun () ->
                  let tool = make_tool ~nprocs:k.Rma_microbench.Scenario.Kernel.k_nprocs in
                  (Rma_microbench.Runner.run_kernel ~seed
                     ?interleave_seed:run.Run_config.interleave_seed ~tool k)
                    .Rma_microbench.Runner.k_reports)))
  | other ->
      Error
        (Printf.sprintf
           "workload %S is not replayable (replay covers cfd, minivite, code and kernel)" other)

let run p =
  let* thunk = build_thunk p in
  (* Labelled as [Diag.with_diag] labels the journaled run's reports. *)
  let reports = Diag.renumber (thunk ()) in
  let races = List.length reports and digest = Race_export.verdict_digest reports in
  let o_match =
    match (p.r_races, p.r_digest) with
    | Some n, Some d -> Some (Int.equal n races && String.equal d digest)
    | _ -> None
  in
  Ok { o_races = races; o_digest = digest; o_match }

let verdict o = Option.value o.o_match ~default:true

let render p o =
  let b = Buffer.create 512 in
  Buffer.add_string b (describe p);
  Printf.bprintf b "re-run: %d race report%s, digest %s\n" o.o_races
    (if o.o_races = 1 then "" else "s")
    o.o_digest;
  (match o.o_match with
  | Some true -> Printf.bprintf b "verdicts: byte-identical\n"
  | Some false ->
      Printf.bprintf b "verdicts: MISMATCH — journal recorded %s race report%s, digest %s\n"
        (Option.fold ~none:"?" ~some:string_of_int p.r_races)
        (if p.r_races = Some 1 then "" else "s")
        (Option.value ~default:"?" p.r_digest)
  | None -> Printf.bprintf b "verdicts: original run recorded no run_summary; nothing to compare\n");
  Buffer.add_string b (if verdict o then "REPLAY OK\n" else "REPLAY MISMATCH\n");
  Buffer.contents b
