(* Command-line front end: run any bundled workload under any detector,
   score the microbenchmark suite, or regenerate a paper experiment.

     rma_race suite --tool contribution
     rma_race code ll_get_load_inwindow_origin_race
     rma_race minivite --ranks 32 --vertices 64000 --tool must --inject
     rma_race cfd --ranks 12 --iterations 50 --tool legacy
     rma_race minivite --inject --races-json races.json --races-sarif races.sarif
     rma_race explain 1 --from races.json
*)

open Cmdliner
open Rma_analysis

(* --- diagnostics flags (observability + race exports), shared by
   every subcommand; the semantics live in Rma_report.Diag so the
   examples and the bench driver thread the same knobs --- *)

module Diag = Rma_report.Diag

let wants_races = Diag.wants_races

let diag_term =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "obs-out" ] ~docv:"FILE"
          ~doc:
            "Record metrics and spans during the run and write a Chrome trace_event JSON file to \
             $(docv) (open in Perfetto or chrome://tracing).")
  in
  let summary =
    Arg.(
      value & flag
      & info [ "obs-summary" ]
          ~doc:"Print a metrics summary (latency percentiles, counters, span categories) after the run.")
  in
  let prometheus =
    Arg.(
      value
      & opt (some string) None
      & info [ "obs-prometheus" ] ~docv:"FILE"
          ~doc:"Write metrics in Prometheus text exposition format to $(docv).")
  in
  let events =
    Arg.(
      value
      & opt (some string) None
      & info [ "obs-events" ] ~docv:"FILE"
          ~doc:
            "Write the structured event journal (epoch opens/closes, budget degradations, codec \
             errors) as JSON lines to $(docv). Same as setting $(b,RMA_OBS_EVENTS).")
  in
  let level =
    Arg.(
      value
      & opt (some string) None
      & info [ "obs-level" ] ~docv:"LEVEL"
          ~doc:
            "Minimum event-journal level: debug, info, warn or error (default info; debug admits \
             per-epoch events). Same as setting $(b,RMA_OBS_LEVEL).")
  in
  let races_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "races-json" ] ~docv:"FILE"
          ~doc:
            "Write the race reports of the run as schema-versioned JSON to $(docv) (full \
             provenance: epoch, vector clock, flight-recorder history of both sides; readable \
             back with $(b,rma_race explain)). Enables the flight recorder.")
  in
  let races_sarif =
    Arg.(
      value
      & opt (some string) None
      & info [ "races-sarif" ] ~docv:"FILE"
          ~doc:
            "Write the race reports of the run as SARIF 2.1.0 to $(docv), one result per race \
             with every contributing source location. Enables the flight recorder.")
  in
  let budget =
    Arg.(
      value
      & opt (some string) None
      & info [ "budget" ] ~docv:"SPEC"
          ~doc:
            "Bound every interval store, e.g. $(b,nodes=4096,policy=spill) or the shorthand \
             $(b,4096:spill). Policies: fail (raise on overflow), spill (drop oldest completed \
             epoch, counted in degraded_drops), coarsen (merge ignoring debug info, downgraded \
             confidence in SARIF). Same as setting $(b,RMA_BUDGET).")
  in
  let predictive =
    Arg.(
      value & flag
      & info [ "predictive" ]
          ~doc:
            "Run the predictive (weak-order) analysis alongside the observed one: accesses \
             unordered under MPI synchronization semantics alone — no fence or fully flushed \
             barrier between them — are reported as schedulable races ($(b,predicted) in the \
             JSON/SARIF exports, with a witness reordering rendered by $(b,explain)), even when \
             the observed schedule kept them apart. Same as setting $(b,RMA_PREDICTIVE=1).")
  in
  let mk obs_out obs_summary obs_prometheus obs_events obs_level races_json races_sarif budget
      predictive =
    {
      Diag.obs_out;
      obs_summary;
      obs_prometheus;
      obs_events;
      obs_level;
      races_json;
      races_sarif;
      budget;
      predictive;
      interleave_seed = None;
    }
  in
  Term.(
    const mk $ out $ summary $ prometheus $ events $ level $ races_json $ races_sarif $ budget
    $ predictive)

let generator = "rma_race"

let with_diag ?workload opts f = Diag.with_diag ~prog:"rma_race" ~generator ?workload opts f

let tool_enum = List.map (fun k -> (Toolbox.slug k, k)) Toolbox.all

module Run_config = Rma_config.Run_config
module Harness = Rma_report.Harness

let tool_arg =
  Arg.(
    value
    & opt (enum tool_enum) Toolbox.Contribution
    & info [ "tool"; "t" ] ~docv:"TOOL" ~doc:"Detector: $(docv) is one of baseline, legacy, must, contribution, frag-only, order-blind.")

let ranks_arg default =
  Arg.(value & opt int default & info [ "ranks"; "n" ] ~docv:"N" ~doc:"Number of simulated MPI ranks.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Scheduler seed.")

let config = { Mpi_sim.Config.default with Mpi_sim.Config.analysis_overhead_scale = 2.0 }

let print_tool_outcome tool =
  let total = tool.Tool.race_count () in
  let dropped = Tool.dropped_races tool in
  if dropped > 0 then
    Printf.printf "reports: %d (%d stored, %d dropped past the report cap)\n" total
      (Tool.stored_races tool) dropped
  else Printf.printf "reports: %d\n" total;
  List.iteri
    (fun i r -> if i < 5 then Printf.printf "  %s\n" (Report.to_message r))
    (tool.Tool.races ());
  let b = tool.Tool.bst_summary () in
  if b.Tool.inserts_total > 0 then begin
    Printf.printf "BST: %d trees, %d nodes final, %d peak, %d inserts, %d merges\n" b.Tool.stores
      b.Tool.nodes_final_total b.Tool.nodes_peak_total b.Tool.inserts_total b.Tool.merges_total;
    if b.Tool.degraded_drops_total > 0 then
      Printf.printf
        "DEGRADED: budget governance dropped/coarsened %d nodes — detection was best-effort\n"
        b.Tool.degraded_drops_total
  end

(* --- suite --- *)

let suite_cmd =
  let run obs tool_choice =
    with_diag obs @@ fun run ->
    let tool = Harness.make_tool ~run tool_choice ~nprocs:3 ~config in
    match tool_choice with
    | Toolbox.Baseline ->
        print_endline "the baseline detects nothing; pick a real tool";
        []
    | _ ->
        let c = Rma_microbench.Runner.score ~tool Rma_microbench.Scenario.all in
        Printf.printf "suite: %d codes — FP=%d FN=%d TP=%d TN=%d%s\n"
          Rma_microbench.Scenario.count_total c.Rma_microbench.Runner.fp
          c.Rma_microbench.Runner.fn c.Rma_microbench.Runner.tp c.Rma_microbench.Runner.tn
          (if c.Rma_microbench.Runner.dropped > 0 then
             Printf.sprintf " (%d reports dropped)" c.Rma_microbench.Runner.dropped
           else "");
        (* [score] resets the tool per scenario, so exporting the suite's
           races means replaying it collecting each verdict's reports. *)
        if wants_races obs then
          List.concat_map
            (fun sc -> (Rma_microbench.Runner.run ~tool sc).Rma_microbench.Runner.reports)
            Rma_microbench.Scenario.all
        else []
  in
  Cmd.v
    (Cmd.info "suite" ~doc:"Score a detector on the 154-code microbenchmark suite (Table 3).")
    Term.(const run $ diag_term $ tool_arg)

(* --- code --- *)

let code_cmd =
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"CODE" ~doc:"Microbenchmark name.")
  in
  let run obs tool_choice name =
    with_diag ~workload:("code", [ ("tool", Toolbox.slug tool_choice); ("code", name) ]) obs
    @@ fun run ->
    match Rma_microbench.Scenario.find name with
    | None ->
        Printf.eprintf "unknown code %S\n" name;
        exit 2
    | Some s ->
        let tool = Harness.make_tool ~run tool_choice ~nprocs:3 ~config in
        let v = Rma_microbench.Runner.run ~tool s in
        Printf.printf "%s: ground truth %s; %s says %s [%s]\n" name
          (if s.Rma_microbench.Scenario.racy then "RACE" else "safe")
          tool.Tool.name
          (if v.Rma_microbench.Runner.flagged then "error detected" else "no error")
          (Rma_microbench.Runner.outcome_name (Rma_microbench.Runner.classify v));
        List.iter (fun r -> print_endline ("  " ^ Report.to_message r)) v.Rma_microbench.Runner.reports;
        v.Rma_microbench.Runner.reports
  in
  Cmd.v
    (Cmd.info "code" ~doc:"Run one microbenchmark code under a detector.")
    Term.(const run $ diag_term $ tool_arg $ name_arg)


(* --- kernel --- *)

let interleave_seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "interleave-seed" ] ~docv:"SEED"
        ~doc:
          "Decouple the scheduler's fiber-interleaving choices from the data-level seed. \
           Defaults to $(b,RMA_INTERLEAVE_SEED) when set; otherwise scheduling draws from \
           $(b,--seed) exactly as before.")

let kernel_cmd =
  let name_arg =
    Arg.(
      required & pos 0 (some string) None & info [] ~docv:"KERNEL" ~doc:"Kernel name (rrb_* or hyb_*).")
  in
  let run obs tool_choice name seed interleave_seed =
    (* Looked up first, so an unknown name journals no run_start. *)
    match Rma_microbench.Scenario.Kernel.find name with
    | None ->
        Printf.eprintf "unknown kernel %S\n" name;
        exit 2
    | Some k ->
        with_diag
          ~workload:
            ( "kernel",
              [ ("tool", Toolbox.slug tool_choice); ("kernel", name); ("seed", string_of_int seed) ]
            )
          { obs with Diag.interleave_seed }
        @@ fun run ->
        let tool =
          Harness.make_tool ~run tool_choice
            ~nprocs:k.Rma_microbench.Scenario.Kernel.k_nprocs ~config
        in
        let v =
          Rma_microbench.Runner.run_kernel ~seed ?interleave_seed:run.Run_config.interleave_seed
            ~tool k
        in
        Printf.printf "%s: ground truth %s; %s says %s\n" name
          (if k.Rma_microbench.Scenario.Kernel.k_racy then "RACE" else "safe")
          tool.Tool.name
          (if v.Rma_microbench.Runner.k_flagged then "error detected" else "no error");
        List.iter
          (fun r -> print_endline ("  " ^ Report.to_message r))
          v.Rma_microbench.Runner.k_reports;
        v.Rma_microbench.Runner.k_reports
  in
  Cmd.v
    (Cmd.info "kernel"
       ~doc:
         "Run one RMARaceBench-shaped kernel (including the hybrid MPI+threads hyb_* family) \
          under a detector, optionally with an explicit thread/rank interleaving seed.")
    Term.(const run $ diag_term $ tool_arg $ name_arg $ seed_arg $ interleave_seed_arg)

(* --- minivite --- *)

let minivite_cmd =
  let vertices_arg =
    Arg.(value & opt int 64_000 & info [ "vertices" ] ~docv:"V" ~doc:"Graph size.")
  in
  let inject_arg =
    Arg.(value & flag & info [ "inject" ] ~doc:"Duplicate one MPI_Put (the Figure 9 fault).")
  in
  let run obs tool_choice nprocs seed vertices inject =
    with_diag
      ~workload:
        ( "minivite",
          [
            ("tool", Toolbox.slug tool_choice);
            ("ranks", string_of_int nprocs);
            ("seed", string_of_int seed);
            ("vertices", string_of_int vertices);
            ("inject", string_of_bool inject);
          ] )
      obs
    @@ fun run ->
    let params =
      {
        Minivite.Louvain.default_params with
        Minivite.Louvain.graph =
          { Minivite.Graph.default_params with Minivite.Graph.n_vertices = vertices };
        inject_race = inject;
      }
    in
    let tool = Harness.make_tool ~run tool_choice ~nprocs ~config in
    let observer = match tool_choice with Toolbox.Baseline -> None | _ -> Some tool.Tool.observer in
    let result, summary = Minivite.Louvain.run params ~nprocs ~seed ~config ?observer () in
    Printf.printf
      "minivite: %d vertices, %d ranks — modularity %.3f, %d communities, %d gets, %d puts\n"
      vertices nprocs summary.Minivite.Louvain.modularity summary.Minivite.Louvain.communities
      summary.Minivite.Louvain.ghost_fetches summary.Minivite.Louvain.update_puts;
    Printf.printf "simulated time: %.1f ms; wall: %.2f s\n"
      (result.Mpi_sim.Runtime.makespan *. 1000.0)
      result.Mpi_sim.Runtime.wall_seconds;
    print_tool_outcome tool;
    tool.Tool.races ()
  in
  Cmd.v
    (Cmd.info "minivite" ~doc:"Run the MiniVite-like Louvain phase under a detector.")
    Term.(const run $ diag_term $ tool_arg $ ranks_arg 32 $ seed_arg $ vertices_arg $ inject_arg)

(* --- cfd --- *)

let cfd_cmd =
  let iterations_arg =
    Arg.(value & opt int 50 & info [ "iterations" ] ~docv:"I" ~doc:"Halo-exchange iterations.")
  in
  let cells_arg =
    Arg.(value & opt int 432 & info [ "cells" ] ~docv:"C" ~doc:"Cells per halo chunk.")
  in
  let run obs tool_choice nprocs seed iterations cells =
    with_diag
      ~workload:
        ( "cfd",
          [
            ("tool", Toolbox.slug tool_choice);
            ("ranks", string_of_int nprocs);
            ("seed", string_of_int seed);
            ("iterations", string_of_int iterations);
            ("cells", string_of_int cells);
          ] )
      obs
    @@ fun run ->
    let params =
      { Cfd_proxy.Halo.default_params with Cfd_proxy.Halo.iterations; cells_per_chunk = cells }
    in
    let tool = Harness.make_tool ~run tool_choice ~nprocs ~config in
    let observer = match tool_choice with Toolbox.Baseline -> None | _ -> Some tool.Tool.observer in
    let result, summary = Cfd_proxy.Halo.run params ~nprocs ~seed ~config ?observer () in
    Printf.printf "cfd-proxy: %d ranks, %d iterations — checksum %.6g, %d puts\n" nprocs iterations
      summary.Cfd_proxy.Halo.checksum summary.Cfd_proxy.Halo.halo_puts;
    Printf.printf "epoch time (mean per rank): %.3f s; wall: %.2f s\n"
      (Array.fold_left ( +. ) 0.0 result.Mpi_sim.Runtime.epoch_times /. float_of_int nprocs)
      result.Mpi_sim.Runtime.wall_seconds;
    print_tool_outcome tool;
    tool.Tool.races ()
  in
  Cmd.v
    (Cmd.info "cfd" ~doc:"Run the CFD-Proxy-like halo exchange under a detector.")
    Term.(const run $ diag_term $ tool_arg $ ranks_arg 12 $ seed_arg $ iterations_arg $ cells_arg)

(* --- export --- *)

let export_cmd =
  let dir_arg =
    Arg.(value & opt string "results" & info [ "dir"; "o" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let experiments_arg =
    Arg.(
      value
      & opt (list string) [ "table2"; "table3"; "ablation"; "suite" ]
      & info [ "experiments"; "e" ] ~docv:"LIST"
          ~doc:"Comma-separated experiments to export (table2..fig12, ablation, suite).")
  in
  let scale_arg =
    Arg.(value & opt float 0.1 & info [ "scale" ] ~docv:"S" ~doc:"MiniVite input scale factor.")
  in
  let run obs dir experiments scale =
    with_diag obs @@ fun run ->
    Rma_report.Experiments.export ~dir ~scale ~run experiments;
    Printf.printf "exported %s to %s/\n" (String.concat ", " experiments) dir;
    []
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export experiment data as CSV (and the suite as C sources).")
    Term.(const run $ diag_term $ dir_arg $ experiments_arg $ scale_arg)

(* --- record / analyze: the offline post-mortem pair --- *)

module Codec = Rma_trace.Codec

let trace_out_arg =
  Arg.(
    value & opt string "trace.rma"
    & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Trace file to write (Codec format 2).")

let record_cmd =
  let name_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD" ~doc:"Microbenchmark code or kernel name (rrb_*/hyb_*).")
  in
  let run obs name out seed interleave_seed =
    with_diag
      ~workload:("record", [ ("workload", name); ("out", out) ])
      { obs with Diag.interleave_seed }
    @@ fun run ->
    let nprocs, program =
      match Rma_microbench.Scenario.find name with
      | Some s -> (3, Rma_microbench.Runner.program s)
      | None -> (
          match Rma_microbench.Scenario.Kernel.find name with
          | Some k ->
              (k.Rma_microbench.Scenario.Kernel.k_nprocs, k.Rma_microbench.Scenario.Kernel.k_program)
          | None ->
              Printf.eprintf "record: unknown workload %S (neither a code nor a kernel)\n" name;
              exit 2)
    in
    (* Mirror Runner.run/run_kernel: zero observer cost, so the trace is
       schedule-identical to what the in-process detectors saw. *)
    let config = { Mpi_sim.Config.default with Mpi_sim.Config.analysis_overhead_scale = 0.0 } in
    let w =
      Out_channel.with_open_text out (fun oc ->
          let w = Codec.Writer.create oc in
          let observer e =
            Codec.Writer.add w e;
            0.0
          in
          ignore
            (Mpi_sim.Runtime.run ~nprocs ~seed ?interleave_seed:run.Run_config.interleave_seed
               ~config ~observer program);
          Codec.Writer.close w;
          w)
    in
    Printf.printf "recorded %d events (%d ranks) to %s\n" (Codec.Writer.count w) nprocs out;
    []
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:
         "Run a microbenchmark code or kernel with the trace recorder attached (no detector) and \
          write the event stream to a Codec format-2 trace file — the input of $(b,analyze) and \
          of a $(b,serve) session.")
    Term.(const run $ diag_term $ name_arg $ trace_out_arg $ seed_arg $ interleave_seed_arg)

let analyze_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE" ~doc:"Trace file (written by $(b,record) or Recorder.save).")
  in
  let ranks_opt_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "ranks"; "n" ] ~docv:"N"
          ~doc:
            "Simulated rank count; defaults to the highest rank the trace mentions, plus one, \
             found by a first pass over the file that $(docv) skips. Required when TRACE is not \
             a regular file (a pipe such as $(b,/dev/stdin)), which a first pass would drain.")
  in
  let run obs tool_choice file ranks =
    (* Refused before anything is journaled, as an unknown kernel is. *)
    if Option.is_none ranks && (try not (Sys.is_regular_file file) with Sys_error _ -> false)
    then begin
      Printf.eprintf
        "analyze: %s: not a regular file, so its rank count cannot be inferred; give --ranks N\n"
        file;
      exit 2
    end;
    with_diag ~workload:("analyze", [ ("tool", Toolbox.slug tool_choice); ("trace", file) ]) obs
    @@ fun run ->
    (* Default simulator config, not [config]: replay charges no
       observer cost, and the serve daemon builds its per-session tools
       the same way — the byte-identical-verdict contract hangs on it. *)
    let make_tool ~nprocs =
      Harness.make_tool ~run tool_choice ~nprocs ~config:Mpi_sim.Config.default
    in
    match Rma_trace.Ingest.file ?nprocs:ranks ~make_tool file with
    | Error msg ->
        Printf.eprintf "analyze: %s: %s\n" file msg;
        exit 2
    | Ok { Rma_trace.Ingest.tool; nprocs; events } ->
        let reports = tool.Tool.races () in
        Printf.printf "%s: %d events, %d ranks — %s\n" file events nprocs
          (match List.length reports with
          | 0 -> "no race"
          | 1 -> "1 race"
          | n -> Printf.sprintf "%d races" n);
        List.iter (fun r -> print_endline ("  " ^ Report.to_message r)) reports;
        let b = tool.Tool.bst_summary () in
        if b.Tool.degraded_drops_total > 0 then
          Printf.printf "degraded_drops: %d\n" b.Tool.degraded_drops_total;
        Printf.printf "digest: %s\n" (Rma_report.Race_export.verdict_digest reports);
        reports
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Replay a recorded trace file through a detector offline and print its verdicts and \
          their digest. A $(b,serve) session fed the same trace streams field-identical race \
          objects and the same digest — the offline reference the churn test pins.")
    Term.(const run $ diag_term $ tool_arg $ file_arg $ ranks_opt_arg)

(* --- serve: the always-on analysis daemon --- *)

let serve_cmd =
  let port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "port"; "p" ] ~docv:"PORT"
          ~doc:
            "Listen on loopback TCP $(docv); 0 binds an ephemeral port, printed as \
             $(b,serve-port: N) on stderr for scripted callers. Default when $(b,--socket) is \
             not given.")
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a Unix-domain socket at $(docv) instead of TCP (unlinked first).")
  in
  let max_sessions_arg =
    Arg.(
      value & opt int 8
      & info [ "max-sessions" ] ~docv:"N"
          ~doc:"Sessions allowed to stream concurrently; further handshakes wait in the queue.")
  in
  let accept_queue_arg =
    Arg.(
      value & opt int 16
      & info [ "accept-queue" ] ~docv:"N"
          ~doc:
            "Handshaken sessions allowed to wait for a streaming slot; beyond it connections are \
             answered with a $(b,load_shed) line and closed.")
  in
  let run obs port socket max_sessions accept_queue =
    with_diag ~workload:("serve", []) obs @@ fun run ->
    let module D = Rma_serve.Daemon in
    let addr =
      match (socket, port) with
      | Some path, _ -> D.Unix_path path
      | None, Some p -> D.Tcp p
      | None, None -> D.Tcp 0
    in
    let daemon = D.create ~config:{ D.addr; max_sessions; accept_queue } ~run () in
    let stop _ = D.request_stop daemon in
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    (match D.address daemon with
    | D.Tcp p -> Printf.printf "serving on 127.0.0.1:%d (max %d sessions, queue %d)\n%!" p max_sessions accept_queue
    | D.Unix_path path ->
        Printf.printf "serving on %s (max %d sessions, queue %d)\n%!" path max_sessions accept_queue);
    D.run daemon;
    let s = D.stats daemon in
    Printf.printf
      "serve: %d accepted, %d admitted, %d completed, %d shed, %d disconnected, %d failed — %d \
       races streamed over %d events\n"
      s.D.accepted s.D.admitted s.D.completed s.D.shed s.D.disconnected s.D.failed
      s.D.races_streamed s.D.events_ingested;
    []
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the always-on analysis daemon: accept concurrent trace sessions over TCP or a \
          Unix-domain socket (one handshake line, then a Codec stream each), analyse them \
          incrementally under per-session budgets, and stream race verdicts back \
          as JSON lines. SIGINT/SIGTERM drain and stop it. Wire protocol and operations guide: \
          OPERATIONS.md.")
    Term.(
      const run $ diag_term $ port_arg $ socket_arg $ max_sessions_arg $ accept_queue_arg)

(* --- obs: journal analytics and replay --- *)

module Journal = Rma_obs.Journal
module Replay = Rma_report.Replay

let journal_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"JOURNAL"
        ~doc:"Event-journal JSON-lines file (written by $(b,--obs-events) / $(b,RMA_OBS_EVENTS)).")

(* Reading is total: a truncated or bit-flipped journal yields its
   decodable prefix plus an error naming the first bad line. The prefix
   is still served (with the cut point on stderr); only a journal with
   no readable events at all is a hard error. *)
let read_journal path =
  let r = Journal.read_file path in
  (match r.Journal.error with
  | Some e when r.Journal.events = [] ->
      Printf.eprintf "obs: cannot read %s: %s\n" path (Journal.error_to_string e);
      exit 2
  | Some e ->
      Printf.eprintf "obs: %s: %s — analysing the %d events before it\n" path
        (Journal.error_to_string e)
        (List.length r.Journal.events)
  | None -> ());
  r

let obs_query_cmd =
  let component_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "component"; "c" ] ~docv:"NAME"
          ~doc:"Keep only events from this component (analyzer, governor, diag, codec...).")
  in
  let level_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "level"; "l" ] ~docv:"LEVEL"
          ~doc:"Keep only events at or above $(docv): debug, info, warn or error.")
  in
  let run_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "run" ] ~docv:"RUN-ID" ~doc:"Keep only events of this run id.")
  in
  let since_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "since" ] ~docv:"SECONDS" ~doc:"Keep only events with ts >= $(docv).")
  in
  let until_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "until" ] ~docv:"SECONDS" ~doc:"Keep only events with ts <= $(docv).")
  in
  let run path component level run_id since until =
    let f_min_level =
      Option.map
        (fun s ->
          match Rma_obs.Events.level_of_string s with
          | Some l -> l
          | None ->
              Printf.eprintf "obs query: bad --level %S: expected debug, info, warn or error\n" s;
              exit 124)
        level
    in
    let filter =
      {
        Journal.f_component = component;
        f_min_level;
        f_run_id = run_id;
        f_since = since;
        f_until = until;
      }
    in
    let r = read_journal path in
    List.iter
      (fun ev -> print_endline (Rma_obs.Events.line ev))
      (Journal.filter_events filter r.Journal.events)
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Filter a journal by component, level, run id and time window; matching events \
          are reprinted as JSON lines (pipe into jq or back into $(b,obs stats)).")
    Term.(
      const run $ journal_arg $ component_arg $ level_arg $ run_arg $ since_arg $ until_arg)

let obs_stats_cmd =
  let run path =
    let r = read_journal path in
    print_string
      (Journal.render_stats ~source:path ?error:r.Journal.error (Journal.stats_of r.Journal.events))
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Aggregate a journal: event counts by component and level, epoch-duration percentiles \
          (p50/p95/p99) overall and per rank, degradation and read-error counts, and an \
          events-per-second timeline.")
    Term.(const run $ journal_arg)

let obs_replay_cmd =
  let dry_arg =
    Arg.(
      value & flag
      & info [ "dry-run" ] ~doc:"Print what would be replayed without re-running anything.")
  in
  let run path dry =
    let r = read_journal path in
    match Replay.extract r.Journal.events with
    | Error msg ->
        Printf.eprintf "obs replay: %s\n" msg;
        exit 2
    | Ok plan ->
        if dry then print_string (Replay.describe plan)
        else (
          match Replay.run plan with
          | Error msg ->
              Printf.eprintf "obs replay: %s\n" msg;
              exit 2
          | Ok outcome ->
              print_string (Replay.render plan outcome);
              if not (Replay.verdict outcome) then exit 1)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-run the drill a journal records — same workload, parameters, predictive mode and \
          budget — and check the re-run produces the journaled race count and byte-identical \
          verdicts. Exit 1 on mismatch.")
    Term.(const run $ journal_arg $ dry_arg)

let obs_cmd =
  Cmd.group
    (Cmd.info "obs"
       ~doc:
         "Post-mortem analytics over the structured event journal: query (filter), stats \
          (aggregate) and replay (re-run a drill and compare its verdicts).")
    [ obs_query_cmd; obs_stats_cmd; obs_replay_cmd ]

(* --- explain --- *)

let explain_cmd =
  let id_arg =
    Arg.(
      value & pos 0 int 1
      & info [] ~docv:"RACE-ID"
          ~doc:"Race id as printed in the export (JSON $(b,id) field / SARIF $(b,raceId)).")
  in
  let from_arg =
    Arg.(
      value & opt string "races.json"
      & info [ "from"; "f" ] ~docv:"FILE"
          ~doc:"JSON race export to read (written by $(b,--races-json)).")
  in
  let journal_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Correlate the race with the event journal of the run that produced it: prints the \
             journal events sharing the export's run id (degradations, read errors) \
             after the timeline. Requires a v2 export (written with diagnostics on).")
  in
  (* The export's run_id header is the correlation key; a v1 export (or
     a run without diagnostics) has none, so the journal cannot be tied
     to it and saying so beats guessing. *)
  let print_correlated ~path ~journal run_id =
    match run_id with
    | None ->
        Printf.eprintf
          "explain: %s carries no run_id (v1 export or run without diagnostics); cannot \
           correlate with %s\n"
          path journal
    | Some rid ->
        let r = read_journal journal in
        let events =
          Journal.filter_events { Journal.no_filter with Journal.f_run_id = Some rid }
            r.Journal.events
        in
        Printf.printf "\nJournal events of run %s (%d):\n" rid (List.length events);
        List.iter (fun ev -> print_endline ("  " ^ Rma_obs.Events.line ev)) events;
        if events = [] then
          Printf.eprintf "explain: %s has no events for run %s (different run?)\n" journal rid
  in
  let run id path journal =
    match Rma_report.Race_export.load_json_with_run_id ~path with
    | Error msg ->
        Printf.eprintf "explain: cannot read %s: %s\n" path msg;
        exit 2
    | Ok (reports, run_id) -> (
        match Rma_report.Race_export.find_race ~id reports with
        | None ->
            Printf.eprintf "explain: no race with id %d in %s (%d reports; ids run from 1)\n" id
              path (List.length reports);
            exit 2
        | Some r ->
            print_string (Rma_report.Race_export.explain r);
            Option.iter (fun j -> print_correlated ~path ~journal:j run_id) journal)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Render one exported race as a full timeline: the epoch it fired in, the Figure 3 \
          matrix cell, both surviving accesses and the flight-recorder history of every source \
          access merged into each side.")
    Term.(const run $ id_arg $ from_arg $ journal_flag)

let () =
  let doc = "Data race detection for MPI-RMA programs (SC-W 2023 reproduction)" in
  let info = Cmd.info "rma_race" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            suite_cmd;
            code_cmd;
            kernel_cmd;
            minivite_cmd;
            cfd_cmd;
            export_cmd;
            record_cmd;
            analyze_cmd;
            serve_cmd;
            obs_cmd;
            explain_cmd;
          ]))
