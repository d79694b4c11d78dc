(* Regenerates every table and figure of the paper's evaluation (§5),
   plus the ablations, and returns the exact counts each reproduces.

   Usage:
     dune exec bench/main.exe                 -- everything at CI scale
     dune exec bench/main.exe -- table3 fig10 -- selected experiments
     dune exec bench/main.exe -- --scale 1.0 fig11
                                              -- paper-size MiniVite input
     dune exec bench/main.exe -- --ranks 8,16 table4
     dune exec bench/main.exe -- --counts counts.txt table3
                                              -- exact counts, one per line
     dune exec bench/main.exe -- --budget 4096:spill fig11
     dune exec bench/main.exe -- --obs-events events.jsonl --obs-level debug fig10

   Scale notes: MiniVite inputs default to one tenth of the paper's
   640k/1,280k vertices so the full sweep finishes in minutes; rank
   counts are the paper's 32..256. Absolute times are simulated seconds
   (cost model in Mpi_sim.Config) plus the detectors' real measured work
   injected at analysis_overhead_scale; shapes, not absolute values, are
   the reproduction target. *)

open Rma_report
module Run_config = Rma_config.Run_config

let section title = Printf.printf "\n=== %s ===\n\n%!" title

(* Every runner prints its table and returns the counts it reproduces
   exactly: verdict bits, confusion cells, node counts, races and drops.
   [--counts] writes them for scripts/check_bench_counts.sh to diff
   against bench/counts.txt. Timings (wall, simulated seconds, speedups)
   vary run to run and stay in the printed tables; perfbench owns
   timing. *)

let metric_key parts = String.concat "_" parts

let run_table2 ~run =
  section "Table 2";
  let rows, rendered = Experiments.table2 ~run () in
  print_string rendered;
  List.concat_map
    (fun (r : Experiments.verdict_row) ->
      [
        (metric_key [ r.code; "legacy" ], Bool.to_int r.legacy);
        (metric_key [ r.code; "must" ], Bool.to_int r.must);
        (metric_key [ r.code; "contribution" ], Bool.to_int r.contribution);
      ])
    rows

let run_table3 ~run =
  section "Table 3";
  let rows, rendered = Experiments.table3 ~run () in
  print_string rendered;
  print_endline
    "Note: the paper prints TP=41/TN=107 for RMA-Analyzer next to FP=6/FN=0, which cannot all\n\
     hold over 47 racy + 107 safe codes; this harness reports the self-consistent variant\n\
     (six order-sensitivity FPs land on safe codes, cf. Table 2's \
     ll_load_get_inwindow_origin_safe).";
  List.concat_map
    (fun (r : Experiments.confusion_row) ->
      [
        (metric_key [ r.tool; "fp" ], r.fp); (metric_key [ r.tool; "fn" ], r.fn);
        (metric_key [ r.tool; "tp" ], r.tp); (metric_key [ r.tool; "tn" ], r.tn);
        (metric_key [ r.tool; "dropped" ], r.dropped);
      ])
    rows

let run_table4 ~scale ~ranks ~run =
  section "Table 4";
  let rows, rendered = Experiments.table4 ~scale ?ranks ~run () in
  print_string rendered;
  List.concat_map
    (fun (r : Experiments.table4_row) ->
      let pre = Printf.sprintf "r%d_v%d" r.ranks r.vertices in
      [
        (metric_key [ pre; "legacy_nodes" ], r.legacy_nodes);
        (metric_key [ pre; "contribution_nodes" ], r.contribution_nodes);
        (metric_key [ pre; "legacy_peak_nodes" ], r.legacy_peak);
        (metric_key [ pre; "contribution_peak_nodes" ], r.contribution_peak);
      ])
    rows

let run_fig5 () =
  section "Figure 5";
  print_string (Experiments.fig5 ());
  []

let run_fig8 () =
  section "Figure 8";
  let r, rendered = Experiments.fig8 () in
  print_string rendered;
  [
    ("legacy_nodes", r.Experiments.legacy_nodes);
    ("contribution_nodes", r.Experiments.contribution_nodes);
  ]

let run_fig9 ~run =
  section "Figure 9";
  print_string (Experiments.fig9 ~run ());
  []

let perf_metrics rows =
  List.concat_map
    (fun (r : Experiments.perf_row) ->
      let pre = Printf.sprintf "%s_r%d" r.tool r.nprocs in
      [
        (metric_key [ pre; "nodes" ], r.nodes);
        (metric_key [ pre; "peak_nodes" ], r.nodes_peak);
        (metric_key [ pre; "races" ], r.races);
        (metric_key [ pre; "dropped" ], r.dropped);
      ])
    rows

let run_fig10 ~run =
  section "Figure 10";
  let rows, rendered = Experiments.fig10 ~run () in
  print_string rendered;
  perf_metrics rows

let run_fig11 ~scale ~ranks ~run =
  section "Figure 11";
  let rows, rendered = Experiments.fig11 ~scale ?ranks ~run () in
  print_string rendered;
  perf_metrics rows

let run_fig12 ~scale ~ranks ~run =
  section "Figure 12";
  let rows, rendered = Experiments.fig12 ~scale ?ranks ~run () in
  print_string rendered;
  perf_metrics rows

let run_ablation ~run =
  section "Ablations";
  let rows, rendered = Experiments.ablation ~run () in
  print_string rendered;
  List.concat_map
    (fun (r : Experiments.ablation_row) ->
      [ (metric_key [ r.variant; "nodes" ], r.nodes); (metric_key [ r.variant; "races" ], r.races) ])
    rows

(* Insert fast path: two access streams through the disjoint store with
   the fast path off and with the finger cache, asserting identical
   per-access verdicts and final contents, and reporting the
   tree-operation counts. Each row fails the bench when the finger
   needs more tree operations than its ceiling. *)
let run_fastpath () =
  section "Insert fast path (Code 2 adjacent accesses; CFD-Proxy halo runs)";
  let open Rma_access in
  let open Rma_store in
  let mk ?(issuer = 0) ~seq ~file ~line ~op lo hi kind =
    Access.make ~interval:(Interval.make ~lo ~hi) ~kind ~issuer ~seq
      ~debug:(Debug_info.make ~file ~line ~operation:op)
  in
  let row ~label ~prefix ~ceiling stream =
    let feed store =
      let verdicts = List.map (Disjoint_store.insert store) stream in
      Disjoint_store.flush_finger store;
      (verdicts, Disjoint_store.stats store, Disjoint_store.to_list store)
    in
    let verdicts_off, stats_off, list_off = feed (Disjoint_store.create ~fast_path:false ()) in
    let finger = Disjoint_store.create () in
    let verdicts_f, stats_f, list_f = feed finger in
    let same_verdict a b =
      match (a, b) with
      | Store_intf.Inserted, Store_intf.Inserted -> true
      | ( Store_intf.Race_detected { existing = e1; incoming = i1 },
          Store_intf.Race_detected { existing = e2; incoming = i2 } ) ->
          Access.equal e1 e2 && Access.equal i1 i2
      | _ -> false
    in
    let identical =
      List.equal same_verdict verdicts_off verdicts_f
      && List.equal Access.equal list_off list_f
      && stats_off.Store_intf.nodes = stats_f.Store_intf.nodes
    in
    if not identical then
      failwith
        (Printf.sprintf "fastpath bench (%s): finger cache and fast-path-off stores disagree"
           label);
    let ops_off = stats_off.Store_intf.tree_ops and ops_f = stats_f.Store_intf.tree_ops in
    if ops_f > ceiling then
      failwith
        (Printf.sprintf "fastpath bench (%s): finger cache took %d tree ops, ceiling %d" label ops_f
           ceiling);
    let reduction = float_of_int ops_off /. float_of_int (max 1 ops_f) in
    let hits = Disjoint_store.finger_hits finger in
    Printf.printf "%s (%d accesses)\n" label (List.length stream);
    Printf.printf "  %-26s %6d tree ops\n" "fast path off" ops_off;
    Printf.printf "  %-26s %6d tree ops   (%.1fx fewer than fast-path-off)\n" "finger cache" ops_f
      reduction;
    Printf.printf "  finger: %d hits; race verdicts and final node sets: identical\n" hits;
    [
      (metric_key [ prefix; "off_tree_ops" ], ops_off);
      (metric_key [ prefix; "finger_tree_ops" ], ops_f);
      (metric_key [ prefix; "finger_hits" ], hits);
    ]
  in
  (* 1000 adjacent one-byte gets (Figure 8b), then one racy duplicate
     from another rank so the race path is exercised identically. *)
  let code2 =
    List.init 1_000 (fun i ->
        mk ~seq:(i + 1) ~file:"code2.c" ~line:2 ~op:"MPI_Get" i i Access_kind.Rma_write)
    @ [
        mk ~issuer:1 ~seq:1_001 ~file:"code2.c" ~line:9 ~op:"MPI_Get" 500 500
          Access_kind.Rma_write;
      ]
  in
  (* The CFD-Proxy halo shape: a run of adjacent 8-byte pack stores cut
     by a far-away remote Put (which moves the run's head into the tree),
     the run continuing next to its own head, a Put reading the head, and
     a second run starting next to that non-mergeable node. *)
  let halo =
    let base = 65_536 in
    let store ~seq ~line i =
      mk ~seq ~file:"exchange.c" ~line ~op:"Store" (base + (8 * i)) (base + (8 * i) + 7)
        Access_kind.Local_write
    in
    List.concat
      [
        List.init 400 (fun i -> store ~seq:(i + 1) ~line:302 i);
        [
          mk ~issuer:1 ~seq:401 ~file:"exchange.c" ~line:318 ~op:"MPI_Put" 1_000_000 1_000_007
            Access_kind.Rma_write;
        ];
        List.init 200 (fun i -> store ~seq:(402 + i) ~line:302 (400 + i));
        [
          mk ~seq:602 ~file:"exchange.c" ~line:318 ~op:"MPI_Put" base (base + 63)
            Access_kind.Rma_read;
        ];
        List.init 100 (fun i -> store ~seq:(603 + i) ~line:330 (-1 - i));
      ]
  in
  let code2_metrics = row ~label:"Code 2 adjacent gets" ~prefix:"fastpath" ~ceiling:8 code2 in
  code2_metrics @ row ~label:"CFD-Proxy halo runs" ~prefix:"fastpath_halo" ~ceiling:40 halo

(* Hybrid MPI+threads kernel sweep: accuracy of the contribution
   analyzer over the hyb_* corpus across two interleave seeds, plus the
   end-to-end wall cost of the threaded simulation. *)
let run_hybrid ~run =
  section "Hybrid MPI+threads kernels";
  let module Scenario = Rma_microbench.Scenario in
  let module Runner = Rma_microbench.Runner in
  let kernels = Scenario.Kernel.hybrid in
  let interleaves = [ 13; 29 ] in
  let t0 = Rma_util.Timer.now () in
  let correct = ref 0 and total = ref 0 in
  List.iter
    (fun (k : Scenario.Kernel.t) ->
      List.iter
        (fun interleave_seed ->
          let tool =
            Harness.make_tool ~run Rma_analysis.Toolbox.Contribution
              ~nprocs:k.Scenario.Kernel.k_nprocs ~config:Mpi_sim.Config.default
          in
          let v = Runner.run_kernel ~interleave_seed ~tool k in
          incr total;
          if v.Runner.k_flagged = k.Scenario.Kernel.k_racy then incr correct)
        interleaves)
    kernels;
  let wall = Rma_util.Timer.now () -. t0 in
  Printf.printf "%d kernels x %d interleaves: %d/%d verdicts correct, %.3f s total\n"
    (List.length kernels) (List.length interleaves) !correct !total wall;
  [
    ("hybrid_kernels", List.length kernels);
    ("hybrid_verdicts_total", !total);
    ("hybrid_verdicts_correct", !correct);
  ]

(* Predictive-mode overhead and yield: the full labeled kernel corpus
   (base + hybrid + prd) under the observed-only analyzer and again with
   --predictive, same seeds. It prints the wall-time ratio (the
   weak-order bookkeeping should stay under 2x the observed-only
   analysis) and returns the race counts, including the extra races
   predictive mode surfaces at a schedule where the observed analysis
   misses them. *)
let run_predictive ~run =
  section "Predictive mode (weak-order analysis)";
  let module Scenario = Rma_microbench.Scenario in
  let module Runner = Rma_microbench.Runner in
  let kernels = Scenario.Kernel.all @ Scenario.Kernel.hybrid @ Scenario.Kernel.predictive in
  let interleaves = [ 0; 13 ] in
  let sweep ~predictive =
    let t0 = Rma_util.Timer.now () in
    let predicted = ref 0 and observed = ref 0 in
    List.iter
      (fun (k : Scenario.Kernel.t) ->
        List.iter
          (fun interleave_seed ->
            let tool =
              Harness.make_tool ~run:{ run with Run_config.predictive }
                Rma_analysis.Toolbox.Contribution ~nprocs:k.Scenario.Kernel.k_nprocs
                ~config:Mpi_sim.Config.default
            in
            let v = Runner.run_kernel ~interleave_seed ~tool k in
            List.iter
              (fun p ->
                if p.Runner.pair_predicted then incr predicted else incr observed)
              v.Runner.k_pairs)
          interleaves)
      kernels;
    (Rma_util.Timer.now () -. t0, !observed, !predicted)
  in
  (* The corpus is a ~30 ms workload, so one major GC slice inherited
     from an earlier experiment can double a single reading: warm up
     once, then take the best of three sweeps per mode. *)
  ignore (sweep ~predictive:false);
  ignore (sweep ~predictive:true);
  let best ~predictive =
    let runs = List.init 3 (fun _ -> sweep ~predictive) in
    List.fold_left
      (fun (bw, o, p) (w, o', p') -> if w < bw then (w, o', p') else (bw, o, p))
      (List.hd runs) (List.tl runs)
  in
  let obs_wall, obs_races, _ = best ~predictive:false in
  let prd_wall, prd_observed, prd_predicted = best ~predictive:true in
  let overhead = if obs_wall > 0.0 then prd_wall /. obs_wall else Float.nan in
  Printf.printf
    "%d kernels x %d interleaves: observed-only %d races in %.3f s; predictive %d observed + \
     %d predicted in %.3f s (overhead x%.2f)\n"
    (List.length kernels) (List.length interleaves) obs_races obs_wall prd_observed
    prd_predicted prd_wall overhead;
  [
    ("predictive_kernels", List.length kernels);
    ("predictive_observed_races", prd_observed);
    ("predictive_predicted_races", prd_predicted);
  ]

(* Sustained-throughput soak of the serve daemon: a stream of seeded
   client sessions — most completing, some hanging up mid-stream —
   against a live daemon on an ephemeral loopback port. It prints
   sessions/sec over the whole soak and the p99 verdict latency,
   measured client-side from the moment the trace footer is sent to the
   summary line arriving. Before stopping the daemon it waits until
   every connection is closed, so the daemon's totals cover every
   session and must equal what the clients sent. *)
let run_serve ~run =
  section "Serve daemon soak";
  let module Daemon = Rma_serve.Daemon in
  let module Codec = Rma_trace.Codec in
  let module Recorder = Rma_trace.Recorder in
  let module Kernel = Rma_microbench.Scenario.Kernel in
  let record name =
    let k = Option.get (Kernel.find name) in
    let r = Recorder.create () in
    let config = { Mpi_sim.Config.default with Mpi_sim.Config.analysis_overhead_scale = 0.0 } in
    ignore
      (Mpi_sim.Runtime.run ~nprocs:k.Kernel.k_nprocs ~seed:42 ~config
         ~observer:(Recorder.observer r) k.Kernel.k_program);
    let events = Recorder.events r in
    let n = List.length events in
    ( k.Kernel.k_nprocs,
      n,
      (Codec.header :: List.map Codec.encode_event events) @ [ Codec.footer n ] )
  in
  let racy = record "rrb_lockall_remote_conflict_put_put_race" in
  let clean = record "rrb_lockall_remote_disjoint_put_put_safe" in
  let write_all fd s =
    let len = String.length s in
    let rec go off = if off < len then go (off + Unix.write_substring fd s off (len - off)) in
    go 0
  in
  let read_to_eof fd =
    let b = Buffer.create 512 in
    let chunk = Bytes.create 4096 in
    let rec go () =
      match Unix.read fd chunk 0 4096 with
      | 0 -> ()
      | n ->
          Buffer.add_subbytes b chunk 0 n;
          go ()
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
    in
    go ();
    Buffer.contents b
  in
  let daemon =
    Daemon.create ~config:{ Daemon.default_config with Daemon.max_sessions = 4 } ~run ()
  in
  Daemon.start daemon;
  let sessions = 40 in
  let latencies = ref [] in
  let completed = ref 0 and aborted = ref 0 and events_sent = ref 0 in
  let t0 = Rma_util.Timer.now () in
  let all_closed () =
    let st = Daemon.stats daemon in
    st.Daemon.accepted = sessions
    && st.Daemon.completed + st.Daemon.shed + st.Daemon.disconnected + st.Daemon.failed = sessions
  in
  Fun.protect ~finally:(fun () -> Daemon.stop daemon) (fun () ->
      for i = 1 to sessions do
        let nprocs, n_events, lines = if i mod 2 = 0 then racy else clean in
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Daemon.port daemon));
        let hello =
          Printf.sprintf "{\"hello\":1,\"session\":\"soak-%d\",\"nprocs\":%d}" i nprocs
        in
        if i mod 5 = 0 then begin
          (* Churn: hang up mid-stream, footer never sent. *)
          let cut = List.filteri (fun j _ -> j < List.length lines / 2) lines in
          write_all fd (String.concat "\n" (hello :: cut) ^ "\n");
          Unix.close fd;
          incr aborted;
          (* The cut keeps the header line, which carries no event. *)
          events_sent := !events_sent + List.length cut - 1
        end
        else begin
          write_all fd (String.concat "\n" (hello :: lines) ^ "\n");
          events_sent := !events_sent + n_events;
          let footer_sent = Rma_util.Timer.now () in
          (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
          let reply = read_to_eof fd in
          Unix.close fd;
          if
            String.split_on_char '\n' reply
            |> List.exists (fun l ->
                   Astring.String.is_infix ~affix:"\"type\":\"summary\"" l)
          then begin
            latencies := (Rma_util.Timer.now () -. footer_sent) :: !latencies;
            incr completed
          end
        end
      done;
      let deadline = Rma_util.Timer.now () +. 10.0 in
      while (not (all_closed ())) && Rma_util.Timer.now () < deadline do
        Unix.sleepf 0.001
      done);
  let wall = Rma_util.Timer.now () -. t0 in
  let stats = Daemon.stats daemon in
  if not (all_closed () && stats.Daemon.admitted = sessions
          && stats.Daemon.events_ingested = !events_sent)
  then
    failwith
      (Printf.sprintf
         "serve bench: daemon admitted %d of %d sessions and ingested %d of %d events \
          sent (%d connections accepted)"
         stats.Daemon.admitted sessions stats.Daemon.events_ingested !events_sent
         stats.Daemon.accepted);
  let sorted = List.sort compare !latencies in
  let percentile p =
    match sorted with
    | [] -> Float.nan
    | _ ->
        let n = List.length sorted in
        List.nth sorted (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))
  in
  let p50 = percentile 0.50 *. 1000.0 and p99 = percentile 0.99 *. 1000.0 in
  let sessions_per_sec = if wall > 0.0 then float_of_int !completed /. wall else 0.0 in
  Printf.printf
    "%d sessions (%d completed, %d aborted) in %.3f s — %.1f sessions/s; verdict latency p50 \
     %.2f ms, p99 %.2f ms\n"
    sessions !completed !aborted wall sessions_per_sec p50 p99;
  Printf.printf "daemon: %d admitted, %d disconnected, %d races streamed over %d events\n"
    stats.Daemon.admitted stats.Daemon.disconnected stats.Daemon.races_streamed
    stats.Daemon.events_ingested;
  [
    ("serve_sessions_completed", !completed);
    ("serve_sessions_aborted", !aborted);
    ("serve_races_streamed", stats.Daemon.races_streamed);
    ("serve_events_ingested", stats.Daemon.events_ingested);
  ]

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let scale = ref 0.1 in
  let ranks = ref None in
  let counts_out = ref None in
  let selected = ref [] in
  let diag = ref Diag.default in
  let rec parse = function
    | [] -> ()
    | "--scale" :: v :: rest ->
        scale := float_of_string v;
        parse rest
    | "--ranks" :: v :: rest ->
        ranks := Some (List.map int_of_string (String.split_on_char ',' v));
        parse rest
    | "--obs-out" :: v :: rest ->
        diag := { !diag with Diag.obs_out = Some v };
        parse rest
    | "--obs-summary" :: rest ->
        diag := { !diag with Diag.obs_summary = true };
        parse rest
    | "--obs-events" :: v :: rest ->
        diag := { !diag with Diag.obs_events = Some v };
        parse rest
    | "--obs-level" :: v :: rest ->
        diag := { !diag with Diag.obs_level = Some v };
        parse rest
    | "--counts" :: v :: rest ->
        counts_out := Some v;
        parse rest
    | "--budget" :: v :: rest ->
        diag := { !diag with Diag.budget = Some v };
        parse rest
    | arg :: rest ->
        selected := arg :: !selected;
        parse rest
  in
  parse args;
  let selected = if !selected = [] then [ "all" ] else List.rev !selected in
  let scale = !scale and ranks = !ranks in
  let run = Diag.run_config ~prog:"bench" !diag in
  let dispatch = function
    | "table2" -> run_table2 ~run
    | "table3" -> run_table3 ~run
    | "table4" -> run_table4 ~scale ~ranks ~run
    | "fig5" -> run_fig5 ()
    | "fig8" -> run_fig8 ()
    | "fig9" -> run_fig9 ~run
    | "fig10" -> run_fig10 ~run
    | "fig11" -> run_fig11 ~scale ~ranks ~run
    | "fig12" -> run_fig12 ~scale ~ranks ~run
    | "ablation" -> run_ablation ~run
    | "fastpath" -> run_fastpath ()
    | "hybrid" -> run_hybrid ~run
    | "predictive" -> run_predictive ~run
    | "serve" -> run_serve ~run
    | "all" -> []
    | other ->
        Printf.eprintf
          "unknown experiment %S (expected table2 table3 table4 fig5 fig8 fig9 fig10 fig11 fig12 \
           ablation fastpath hybrid predictive serve all)\n"
          other;
        exit 2
  in
  let all_names =
    [ "table2"; "table3"; "table4"; "fig5"; "fig8"; "fig9"; "fig10"; "fig11"; "fig12";
      "ablation"; "fastpath"; "hybrid"; "predictive"; "serve" ]
  in
  let selected = List.concat_map (function "all" -> all_names | n -> [ n ]) selected in
  (* Each experiment becomes a top-level phase span so a trace of the
     full sweep shows where the wall time went. *)
  let counts =
    Diag.with_obs !diag run @@ fun () ->
    List.concat_map
      (fun name ->
        let counts, _wall = Rma_obs.Obs.time_span ~cat:"phase" name (fun () -> dispatch name) in
        (* Tool and variant names carry spaces; one field per column. *)
        let field = String.map (function ' ' -> '_' | c -> c) in
        List.map (fun (metric, v) -> Printf.sprintf "%s %s %d" name (field metric) v) counts)
      selected
  in
  match !counts_out with
  | Some path ->
      (* The header pins the inputs: counts from another scale, rank
         list or experiment list are not comparable line by line. *)
      let ranks =
        match ranks with
        | None -> "default"
        | Some l -> String.concat "," (List.map string_of_int l)
      in
      let oc = open_out path in
      Printf.fprintf oc "# scale %g ranks %s experiments %s\n" scale ranks
        (String.concat " " selected);
      List.iter (fun l -> output_string oc (l ^ "\n")) (List.sort String.compare counts);
      close_out oc;
      Printf.eprintf "bench: wrote %d counts to %s\n%!" (List.length counts) path
  | None -> ()
