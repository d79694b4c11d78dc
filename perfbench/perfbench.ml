(* The repository's end-to-end benchmark. README.md in this directory
   lists the workloads, the metrics and what is pinned off; run it as
   [python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1]
   from the root of the repository. *)

module Config = Mpi_sim.Config
module Runtime = Mpi_sim.Runtime
module Event = Mpi_sim.Event
module Tool = Rma_analysis.Tool
module Toolbox = Rma_analysis.Toolbox
module Report = Rma_analysis.Report
module Recorder = Rma_trace.Recorder
module Codec = Rma_trace.Codec
module Race_export = Rma_report.Race_export
module Json = Rma_util.Json
module Kernel = Rma_microbench.Scenario.Kernel

let now_ns = Ledger.now_ns
let seconds_between t0 t1 = float_of_int (t1 - t0) /. 1e9

(* ---- pinned configuration ---- *)

let default_seed = 42

(* The second seed the verdict checks are run on before a claim lands;
   nothing was tuned against it. *)
let held_out_seed = 7

(* Simulated clocks never absorb measured wall time, so every output is
   a function of the seed alone — as in [Runner] and [rma_race record]. *)
let sim_config = { Config.default with Config.analysis_overhead_scale = 0.0 }

let make_tool ?config nprocs =
  Toolbox.make Toolbox.Contribution ~nprocs ?config ~jobs:1 ~batch_inserts:false ~predictive:false
    ()

(* ---- applications ---- *)

type app = {
  label : string;
  nprocs : int;
  run : seed:int -> Event.observer -> Runtime.result * string;
      (** The simulated run and a fingerprint of the application's own
          output (the CFD checksum, the MiniVite modularity). *)
}

let cfd ~iterations =
  let params = { Cfd_proxy.Halo.default_params with Cfd_proxy.Halo.iterations } in
  {
    label = Printf.sprintf "CFD-Proxy halo exchange, 12 ranks, 2 windows, %d iterations" iterations;
    nprocs = 12;
    run =
      (fun ~seed observer ->
        let r, s = Cfd_proxy.Halo.run params ~nprocs:12 ~seed ~config:sim_config ~observer () in
        (r, Printf.sprintf "checksum %.17g" s.Cfd_proxy.Halo.checksum));
  }

let minivite ~vertices =
  {
    label =
      Printf.sprintf
        "MiniVite Louvain phase, 32 ranks, %d vertices, 2 iterations, Figure 9 duplicate MPI_Put"
        vertices;
    nprocs = 32;
    run =
      (fun ~seed observer ->
        let params =
          {
            Minivite.Louvain.default_params with
            Minivite.Louvain.graph =
              { Minivite.Graph.default_params with Minivite.Graph.n_vertices = vertices; seed };
            inject_race = true;
            iterations = 2;
          }
        in
        let r, s = Minivite.Louvain.run params ~nprocs:32 ~seed ~config:sim_config ~observer () in
        ( r,
          Printf.sprintf "modularity %.17g, %d communities" s.Minivite.Louvain.modularity
            s.Minivite.Louvain.communities ));
  }

let kernel name =
  let k = Option.get (Kernel.find name) in
  {
    label = "kernel " ^ name;
    nprocs = k.Kernel.k_nprocs;
    run =
      (fun ~seed observer ->
        (Runtime.run ~nprocs:k.Kernel.k_nprocs ~seed ~config:sim_config ~observer k.Kernel.k_program, ""));
  }

(* The small serve session: one race line per session. *)
let small_app = kernel "rrb_lockall_remote_conflict_put_put_race"

(* ---- verdicts and what each must be ---- *)

type verdict = { digest : string; races : int; messages : string list; app_out : string }

let renumber reports =
  List.mapi
    (fun i r -> { r with Report.provenance = { r.Report.provenance with Report.id = i + 1 } })
    reports

type expect = {
  pinned_races : int;  (** At the default seed. *)
  pinned_digest : string;  (** At the default seed. *)
  pinned_app_out : string;  (** At the default seed. *)
  always : verdict -> string option;  (** Checked at every seed. *)
}

let has_dspl_pair v =
  let mentions s m =
    let n = String.length s and k = String.length m in
    let rec at i = i + k <= n && (String.sub s i k = m || at (i + 1)) in
    at 0
  in
  if List.exists (fun m -> mentions m "dspl.hpp:612" && mentions m "dspl.hpp:614") v.messages then None
  else Some "no race names the dspl.hpp:612/614 pair"

let check_expect e ~seed v =
  if seed = default_seed && v.races <> e.pinned_races then
    Some (Printf.sprintf "%d races, pinned %d" v.races e.pinned_races)
  else if seed = default_seed && v.digest <> e.pinned_digest then
    Some (Printf.sprintf "digest %s, pinned %s" v.digest e.pinned_digest)
  else if seed = default_seed && v.app_out <> e.pinned_app_out then
    Some (Printf.sprintf "application output %S, pinned %S" v.app_out e.pinned_app_out)
  else e.always v

let same_verdict ~reference v =
  if v.digest <> reference.digest then
    Some (Printf.sprintf "digest %s, reference %s" v.digest reference.digest)
  else if v.races <> reference.races then
    Some (Printf.sprintf "%d races, reference %d" v.races reference.races)
  else if v.app_out <> reference.app_out then
    Some (Printf.sprintf "application output %S, reference %S" v.app_out reference.app_out)
  else None

(* ---- workloads ---- *)

type workload = { name : string; app : app; expect : expect }

let empty_digest = Digest.to_hex (Digest.string "")

(* CFD-Proxy is race-free and its halo checksum does not depend on the
   schedule, so both hold at every seed. *)
let cfd_expect ~checksum =
  let app_out = Printf.sprintf "checksum %.17g" checksum in
  {
    pinned_races = 0;
    pinned_digest = empty_digest;
    pinned_app_out = app_out;
    always =
      (fun v ->
        if v.races <> 0 then Some (Printf.sprintf "%d races on race-free CFD-Proxy" v.races)
        else if v.app_out <> app_out then Some (Printf.sprintf "%s, expected %s" v.app_out app_out)
        else None);
  }

let workloads =
  [
    { name = "cfd_merge"; app = cfd ~iterations:4; expect = cfd_expect ~checksum:456334290432. };
    {
      name = "minivite_frag";
      app = minivite ~vertices:4_000;
      expect =
        {
          pinned_races = 32;
          pinned_digest = "80664b011c284bd16d4b396a6c2c4d89";
          pinned_app_out = "modularity 0.99541701980726371, 11 communities";
          always = has_dspl_pair;
        };
    };
  ]

let small_expect =
  {
    pinned_races = 1;
    pinned_digest = "66515803f2ef84cbe979d8645b909398";
    pinned_app_out = "";
    always =
      (fun v -> if v.races = 1 then None else Some (Printf.sprintf "%d races, expected 1" v.races));
  }

(* ---- operations ---- *)

let attempted = ref 0
let failures = ref []

let check what outcome =
  incr attempted;
  match outcome with None -> () | Some why -> failures := (what ^ ": " ^ why) :: !failures

(* ---- trace files ---- *)

let out_dir = Filename.concat "perfbench" "_out"
let trace_files = ref 0

(* A fresh name per save: rewriting a file in place makes ext4 flush it
   on close, a disk write whose time varies run to run. *)
let fresh_trace_path () =
  incr trace_files;
  Filename.concat out_dir (Printf.sprintf "trace-%d-%d.rma" (Unix.getpid ()) !trace_files)

(* ---- layers ---- *)

let l_sim = Ledger.layer "sim"
let l_observe = Ledger.layer "recorder.observe"
let l_replay = Ledger.layer "recorder.replay"
let l_encode = Ledger.layer "codec.encode"
let l_decode = Ledger.layer "codec.decode"
let l_create = Ledger.layer "analyzer.create"
let l_access = Ledger.layer "analyzer.access"
let l_epoch = Ledger.layer "analyzer.epoch"
let l_sync = Ledger.layer "analyzer.sync"
let l_digest = Ledger.layer "export.digest"
let l_json = Ledger.layer "export.json"
let l_admit = Ledger.layer "serve.admit"
let l_stream = Ledger.layer "serve.stream"
let l_tail = Ledger.layer "serve.tail"

let analyzer_layer = function
  | Event.Access _ -> l_access
  | Event.Epoch_opened _ | Event.Epoch_closed _ -> l_epoch
  | Event.Collective _ | Event.Flushed _ | Event.Win_created _ | Event.Win_freed _
  | Event.Finished _ ->
      l_sync

(* ---- host speed probe ---- *)

(* The shared host this benchmark was built on slows allocation-heavy
   code by up to 1.7x, in spells of seconds to minutes, while a CPU-bound
   loop keeps its speed. The probe is fixed allocation-heavy work (AVL
   inserts, like the store's), independent of the library, timed right
   before every set-up and timed phase. Each round's times are scaled by
   [probe_ref_s] over the round's median probe; README.md has the
   numbers. *)

module Int_map = Map.Make (Int)

let probe_work () =
  let m = ref Int_map.empty in
  for i = 0 to 40_000 do
    m := Int_map.add ((i * 7919) land 0xfffff) i !m
  done;
  Int_map.cardinal !m

(* The probe time that defines the reference host speed: a round figure
   inside what the probe took on the 2-vCPU host the benchmark was built
   on (run medians from 15 to 33 ms). *)
let probe_ref_s = 0.020

let probe_times = ref []

let probe () =
  let t0 = now_ns () in
  ignore (Sys.opaque_identity (probe_work ()));
  probe_times := seconds_between t0 (now_ns ()) :: !probe_times

(* Every set-up and timed phase starts from a collected heap, as a fresh
   process would, so one phase's garbage never lands in the next one's
   time; the probe runs on that heap too. *)
let settle () =
  Gc.compact ();
  probe ();
  Gc.compact ()

(* ---- set-up ---- *)

(* Record an application's trace with the detector attached (one
   simulated run), keeping the trace bytes for the serve sessions and the
   online verdict as the reference every later path must reproduce. *)
let reference_trace app ~seed kind =
  let tool = make_tool ~config:sim_config app.nprocs in
  let r = Recorder.create () in
  let result, app_out = app.run ~seed (Recorder.tee r tool.Tool.observer) in
  let reports = renumber (tool.Tool.races ()) in
  let path = fresh_trace_path () in
  Recorder.save r ~path;
  let bytes = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  let verdict =
    {
      digest = Race_export.verdict_digest reports;
      races = List.length reports;
      messages = List.map Report.to_message reports;
      app_out;
    }
  in
  let trace =
    {
      Serve_loop.kind;
      nprocs = app.nprocs;
      bytes;
      events = Recorder.length r;
      races = verdict.races;
      digest = verdict.digest;
    }
  in
  (verdict, trace, result.Runtime.events_emitted)

type setup = {
  reference : verdict;
  bulk : Serve_loop.trace;
  small : Serve_loop.trace;
  small_verdict : verdict;
  sim_events : int;
  daemon : Serve_loop.daemon;
}

let setup w ~seed =
  let reference, bulk, sim_events = reference_trace w.app ~seed Serve_loop.Bulk in
  let small_verdict, small, _ = reference_trace small_app ~seed Serve_loop.Small in
  let daemon = Serve_loop.start_daemon () in
  { reference; bulk; small; small_verdict; sim_events; daemon }

(* ---- the offline passes ---- *)

type gc = { alloc_mb : float; major_collections : int; top_heap_mb : float }

let words_mb w = w *. float_of_int (Sys.word_size / 8) /. 1e6
let allocated st = st.Gc.minor_words +. st.Gc.major_words -. st.Gc.promoted_words

let timed_phase ledger ~pass ~traced name f =
  settle ();
  let g0 = Gc.quick_stat () in
  let v, p = Ledger.phase ledger ~pass ~traced name f in
  let g1 = Gc.quick_stat () in
  ( v,
    p,
    {
      alloc_mb = words_mb (allocated g1 -. allocated g0);
      major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
      top_heap_mb = words_mb (float_of_int g1.Gc.top_heap_words);
    } )

type pass = {
  traced : bool;
  detect : Ledger.phase;
  record : Ledger.phase;
  analyze : Ledger.phase;
  export : Ledger.phase option;
  gcs : gc list;  (** detect, record, analyze *)
  bst : Tool.bst_summary;
  trace_bytes : int;
  races : int;
}

let offline_pass ledger w (s : setup) ~seed ~pass ~traced =
  let app = w.app in
  let span layer name f = Ledger.span ledger layer name f in
  let verdict reports digest app_out =
    { digest; races = List.length reports; messages = List.map Report.to_message reports; app_out }
  in
  (* Online detection: the application under the detector, the paper's mode. *)
  let (tool, result, app_out, reports, digest), detect, g_detect =
    timed_phase ledger ~pass ~traced "detect" (fun () ->
        let tool = span l_create "Toolbox.make" (fun () -> make_tool ~config:sim_config app.nprocs) in
        let observer = Ledger.observer ledger analyzer_layer tool.Tool.observer in
        let result, app_out = span l_sim "Runtime.run" (fun () -> app.run ~seed observer) in
        let reports = renumber (tool.Tool.races ()) in
        let digest =
          span l_digest "Race_export.verdict_digest" (fun () -> Race_export.verdict_digest reports)
        in
        (tool, result, app_out, reports, digest))
  in
  let online = verdict reports digest app_out in
  check "detect" (same_verdict ~reference:s.reference online);
  check "detect events"
    (if result.Runtime.events_emitted = s.sim_events then None
     else Some (Printf.sprintf "%d events, set-up saw %d" result.Runtime.events_emitted s.sim_events));
  let bst = tool.Tool.bst_summary () in
  (* Post-mortem, front half: record the run and save the trace. *)
  let path = fresh_trace_path () in
  let (recorded, app_out), record, g_record =
    timed_phase ledger ~pass ~traced "record" (fun () ->
        let r = Recorder.create () in
        let observer = Ledger.observer ledger (fun _ -> l_observe) (Recorder.observer r) in
        let _, app_out = span l_sim "Runtime.run" (fun () -> app.run ~seed observer) in
        span l_encode "Recorder.save" (fun () -> Recorder.save r ~path);
        (Recorder.length r, app_out))
  in
  check "record"
    (if recorded <> s.bulk.Serve_loop.events then
       Some (Printf.sprintf "%d events recorded, set-up recorded %d" recorded s.bulk.Serve_loop.events)
     else if app_out <> s.reference.app_out then Some "application output differs from set-up"
     else None);
  let trace_bytes = (Unix.stat path).Unix.st_size in
  (* Post-mortem, back half: exactly [rma_race analyze --ranks N]. *)
  let loaded, analyze, g_analyze =
    timed_phase ledger ~pass ~traced "analyze" (fun () ->
        match span l_decode "Recorder.load" (fun () -> Recorder.load ~path) with
        | Error e -> Error e
        | Ok events ->
            let tool = span l_create "Toolbox.make" (fun () -> make_tool app.nprocs) in
            let timed = { tool with Tool.observer = Ledger.observer ledger analyzer_layer tool.Tool.observer } in
            let reports =
              renumber (span l_replay "Recorder.replay" (fun () -> Recorder.replay events ~tool:timed))
            in
            let digest =
              span l_digest "Race_export.verdict_digest" (fun () -> Race_export.verdict_digest reports)
            in
            Ok (tool, reports, digest))
  in
  Sys.remove path;
  let export =
    match loaded with
    | Error e ->
        check "analyze" (Some ("trace unreadable: " ^ e));
        None
    | Ok (tool, reports, digest) ->
        check "analyze"
          (match same_verdict ~reference:s.reference (verdict reports digest s.reference.app_out) with
          | Some _ as failed -> failed
          | None when tool.Tool.bst_summary () <> bst -> Some "store counters differ from online detection"
          | None -> None);
        if traced then
          Some
            (snd
               (Ledger.phase ledger ~pass ~traced "export" (fun () ->
                    span l_json "Race_export.to_json" (fun () ->
                        Json.to_string (Race_export.to_json ~generator:"perfbench" reports)))))
        else None
  in
  {
    traced;
    detect;
    record;
    analyze;
    export;
    gcs = [ g_detect; g_record; g_analyze ];
    bst;
    trace_bytes;
    races = online.races;
  }

(* ---- the serve phase ---- *)

let check_session (x : Serve_loop.sample) =
  check
    (match x.Serve_loop.s_kind with Serve_loop.Bulk -> "bulk session" | Serve_loop.Small -> "small session")
    (if x.Serve_loop.ok then None else Some x.Serve_loop.why)

let ledger_session ledger (x : Serve_loop.sample) =
  let in_ledger = x.Serve_loop.s_kind = Serve_loop.Bulk in
  if x.Serve_loop.ok then begin
    Ledger.record ledger l_admit "connect → admitted" ~t0:x.Serve_loop.connect ~t1:x.Serve_loop.admitted
      ~in_ledger;
    Ledger.record ledger l_stream "admitted → footer written" ~t0:x.Serve_loop.admitted
      ~t1:x.Serve_loop.footer ~in_ledger;
    Ledger.record ledger l_tail "footer → summary" ~t0:x.Serve_loop.footer ~t1:x.Serve_loop.summary
      ~in_ledger
  end

(* In-process cost of what the daemon does with one bulk trace:
   incremental decoding, then the detector over the decoded events. *)
let in_process_bulk (tr : Serve_loop.trace) =
  let lines = String.split_on_char '\n' tr.Serve_loop.bytes in
  let t0 = now_ns () in
  let dec = Codec.Incremental.create () in
  let events =
    List.fold_left
      (fun acc line ->
        match Codec.Incremental.feed dec line with
        | Ok (Codec.Incremental.Event e) -> e :: acc
        | Ok (Codec.Incremental.Skip | Codec.Incremental.Complete _) -> acc
        | Error err -> failwith (Codec.error_to_string err))
      [] lines
  in
  let t1 = now_ns () in
  let tool = make_tool tr.Serve_loop.nprocs in
  ignore (Recorder.replay (List.rev events) ~tool);
  let t2 = now_ns () in
  (seconds_between t0 t1, seconds_between t1 t2)

(* ---- statistics ---- *)

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let percentile xs p = match xs with [] -> nan | _ -> Rma_util.Stats.percentile (Array.of_list xs) ~p

let latency_ms (x : Serve_loop.sample) = seconds_between x.Serve_loop.connect x.Serve_loop.summary *. 1e3

(* ---- the run ---- *)

let print_config w ~seed ~seconds ~traced =
  let c = sim_config in
  Printf.printf "perfbench: workload %s, seed %d, %d s, trace %d\n" w.name seed seconds
    (if traced then 1 else 0);
  Printf.printf "  application: %s\n" w.app.label;
  Printf.printf "  small session: %s\n" small_app.label;
  Printf.printf
    "  detector: Toolbox.make Contribution ~jobs:1 ~batch_inserts:false ~predictive:false; no \
     budget, no fault plan; obs disabled\n";
  Printf.printf
    "  simulator: alpha_msg %g, beta_byte %g, alpha_rma %g, alpha_sync %g, apply_early %g, \
     analysis_overhead_scale %g, analysis_self_timed %b, memory %d\n"
    c.Config.alpha_msg c.Config.beta_byte c.Config.alpha_rma c.Config.alpha_sync
    c.Config.apply_early_probability c.Config.analysis_overhead_scale c.Config.analysis_self_timed
    c.Config.memory_size;
  Printf.printf
    "  daemon: own process, max_sessions %d, accept_queue %d; client: 1 thread, 2 connections, 1 \
     bulk session per round\n%!"
    Serve_loop.daemon_config.Rma_serve.Daemon.max_sessions
    Serve_loop.daemon_config.Rma_serve.Daemon.accept_queue

(* One round: in rounds 1 to 6 a set-up, then an offline pass and a
   serve slice. [scale] takes its times to the reference host speed:
   [probe_ref_s] over the median of the probes taken in the round, one
   before each of its set-up and timed phases, a second or two apart.
   The host's slow spells last seconds, and one 20 ms probe alone is too
   noisy to stand for the phase after it. *)
type round = {
  setup_s : float option;
  pass : pass;
  serve : Ledger.phase;
  samples : Serve_loop.sample list;
  scale : float;
}

let ok_samples kind samples =
  List.filter (fun x -> x.Serve_loop.ok && x.Serve_loop.s_kind = kind) samples

(* The small sessions that shared the daemon with a bulk stream: they ran
   entirely while a bulk session was streaming, between its [admitted]
   line and its last byte. *)
let contended_small samples =
  let streaming = ok_samples Serve_loop.Bulk samples in
  List.filter
    (fun x ->
      List.exists
        (fun b -> b.Serve_loop.admitted <= x.Serve_loop.connect && x.Serve_loop.summary <= b.Serve_loop.footer)
        streaming)
    (ok_samples Serve_loop.Small samples)

let bulk_p50 samples = median (List.map latency_ms (ok_samples Serve_loop.Bulk samples))
let small_p50 samples = median (List.map latency_ms (contended_small samples))
let small_p90 samples = percentile (List.map latency_ms (contended_small samples)) 90.0

let sessions_per_s r =
  float_of_int (List.length (List.filter (fun x -> x.Serve_loop.ok) r.samples)) /. r.serve.Ledger.wall_s

let check_daemon_counters stats sessions =
  let completed = List.filter (fun x -> x.Serve_loop.ok) sessions in
  let sum f = List.fold_left (fun a x -> a + f x) 0 completed in
  check "daemon counters"
    (match stats with
    | None -> Some "daemon printed no counters"
    | Some d ->
        let events = sum (fun x -> x.Serve_loop.events) and races = sum (fun x -> x.Serve_loop.races) in
        if d.Serve_loop.completed <> List.length completed then
          Some
            (Printf.sprintf "daemon completed %d sessions, client saw %d" d.Serve_loop.completed
               (List.length completed))
        else if d.Serve_loop.events_ingested <> events then
          Some
            (Printf.sprintf "daemon ingested %d events, summaries say %d" d.Serve_loop.events_ingested
               events)
        else if d.Serve_loop.races_streamed <> races then
          Some
            (Printf.sprintf "daemon streamed %d races, summaries say %d" d.Serve_loop.races_streamed
               races)
        else if d.Serve_loop.shed + d.Serve_loop.failed + d.Serve_loop.disconnected > 0 then
          Some "daemon shed, failed or lost sessions"
        else None)

let run w ~seed ~seconds ~traced =
  print_config w ~seed ~seconds ~traced;
  let ledger = Ledger.create () in
  (* Set-up is timed seven times, spread over the run: once here (this
     one serves the run) and again at the start of rounds 1 to 6, each
     with its own daemon that is stopped at once. The median is the
     metric. *)
  let timed_setup () =
    settle ();
    let t0 = now_ns () in
    let x = setup w ~seed in
    let dt = seconds_between t0 (now_ns ()) in
    check "reference verdict" (check_expect w.expect ~seed x.reference);
    check "small reference verdict" (check_expect small_expect ~seed x.small_verdict);
    (dt, x)
  in
  let first_s, s = timed_setup () in
  let extra_setup () =
    let dt, x = timed_setup () in
    ignore (Serve_loop.stop_daemon x.daemon);
    check "set-up repeats"
      (if x.bulk.Serve_loop.bytes = s.bulk.Serve_loop.bytes
          && x.small.Serve_loop.bytes = s.small.Serve_loop.bytes
       then None
       else Some "a set-up recorded different trace bytes");
    dt
  in
  Printf.printf "  reference: %d races, digest %s, %s; trace %d events, %.1f MB\n" s.reference.races
    s.reference.digest s.reference.app_out s.bulk.Serve_loop.events
    (float_of_int (String.length s.bulk.Serve_loop.bytes) /. 1e6);
  Printf.printf "  small reference: %d races, digest %s\n%!" s.small_verdict.races
    s.small_verdict.digest;
  let slice () = Serve_loop.closed_loop ~port:s.daemon.Serve_loop.port ~bulk_sessions:1 s.bulk s.small in
  (* Untimed warm-up: one pass and one session of each kind. *)
  ignore (offline_pass ledger w s ~seed ~pass:0 ~traced:false);
  let warm = slice () in
  List.iter check_session warm;
  (* Timed rounds until [seconds] have passed; in a traced run every
     other round is traced. *)
  let deadline = now_ns () + (seconds * 1_000_000_000) in
  let min_rounds = 6 in
  let rec rounds i acc =
    if i > min_rounds && now_ns () >= deadline then List.rev acc
    else begin
      let probes_before = List.length !probe_times in
      let setup_s = if i <= min_rounds then Some (extra_setup ()) else None in
      let traced = traced && i mod 2 = 0 in
      let pass = offline_pass ledger w s ~seed ~pass:i ~traced in
      settle ();
      let samples, serve =
        Ledger.phase ledger ~pass:i ~traced "serve" (fun () ->
            let samples = slice () in
            List.iter (ledger_session ledger) samples;
            samples)
      in
      List.iter check_session samples;
      let probes = List.filteri (fun j _ -> j < List.length !probe_times - probes_before) !probe_times in
      let r = { setup_s; pass; serve; samples; scale = probe_ref_s /. median probes } in
      Printf.printf
        "  round %d%s: detect %.3f s, record %.3f s, analyze %.3f s; %d bulk p50 %.1f ms, %d \
         contended small p50 %.2f ms p90 %.2f ms, %.0f sessions/s; probe %.2f ms\n%!"
        i (if traced then " (traced)" else "") pass.detect.Ledger.wall_s pass.record.Ledger.wall_s
        pass.analyze.Ledger.wall_s
        (List.length (ok_samples Serve_loop.Bulk samples))
        (bulk_p50 samples)
        (List.length (contended_small samples))
        (small_p50 samples) (small_p90 samples) (sessions_per_s r)
        (median probes *. 1e3);
      rounds (i + 1) (r :: acc)
    end
  in
  let rounds = rounds 1 [] in
  let daemon_stats = Serve_loop.stop_daemon s.daemon in
  check_daemon_counters daemon_stats (warm @ List.concat_map (fun r -> r.samples) rounds);
  let own_rss = Rma_obs.Telemetry.peak_rss_bytes () in
  let daemon_rss = match daemon_stats with Some d -> d.Serve_loop.peak_rss_bytes | None -> 0 in
  Printf.printf "  peak RSS: benchmark %.1f MB, daemon %.1f MB\n%!" (float_of_int own_rss /. 1e6)
    (float_of_int daemon_rss /. 1e6);
  let untraced = List.filter (fun r -> not r.pass.traced) rounds in
  let traced_rounds = List.filter (fun r -> r.pass.traced) rounds in
  let probe_s = median !probe_times in
  let scales = List.map (fun r -> r.scale) rounds in
  Printf.printf "  host probe: median %.2f ms over %d probes; round scales %.3f to %.3f\n%!"
    (probe_s *. 1e3) (List.length !probe_times)
    (List.fold_left Float.min infinity scales)
    (List.fold_left Float.max 0.0 scales);
  let metrics =
    if not traced then
      (* Every time is a median over rounds of the round's figure times
         its scale. *)
      let med f = median (List.map (fun r -> f r *. r.scale) untraced) in
      (* The first set-up ran just before the warm-up; round 1's scale is
         the nearest. *)
      let setups =
        (first_s *. (List.hd rounds).scale)
        :: List.filter_map (fun r -> Option.map (fun x -> x *. r.scale) r.setup_s) rounds
      in
      [
        ("setup_s", median setups, "s");
        ("detect_s", med (fun r -> r.pass.detect.Ledger.wall_s), "s");
        ("record_s", med (fun r -> r.pass.record.Ledger.wall_s), "s");
        ("analyze_s", med (fun r -> r.pass.analyze.Ledger.wall_s), "s");
        ("peak_rss_mb", float_of_int (max own_rss daemon_rss) /. 1e6, "MB");
        ("bulk_p50_ms", med (fun r -> bulk_p50 r.samples), "ms");
        ("small_p50_ms", med (fun r -> small_p50 r.samples), "ms");
        ("small_p90_ms", med (fun r -> small_p90 r.samples), "ms");
        ("sessions_per_s", median (List.map (fun r -> sessions_per_s r /. r.scale) untraced), "1/s");
      ]
    else
      let med f = median (List.map f traced_rounds) in
      let self phase l = phase.Ledger.self_s.(l) in
      let last = (List.nth untraced (List.length untraced - 1)).pass in
      let gc i name f unit =
        ( Printf.sprintf "gc.%s_%s" (List.nth [ "detect"; "record"; "analyze" ] i) name,
          f (List.nth last.gcs i),
          unit )
      in
      let decode_s, replay_s =
        let runs =
          List.init 3 (fun _ ->
              Gc.compact ();
              in_process_bulk s.bulk)
        in
        (median (List.map fst runs), median (List.map snd runs))
      in
      let bulk_step f =
        median
          (List.map f
             (ok_samples Serve_loop.Bulk (List.concat_map (fun r -> r.samples) traced_rounds)))
        *. 1e3
      in
      let wall r = r.pass.detect.Ledger.wall_s +. r.pass.record.Ledger.wall_s +. r.pass.analyze.Ledger.wall_s in
      [
        ("sim.self_s", med (fun r -> self r.pass.detect l_sim +. self r.pass.record l_sim), "s");
        ("sim.events", float_of_int s.sim_events, "count");
        ("recorder.observe_s", med (fun r -> self r.pass.record l_observe), "s");
        ("recorder.replay_s", med (fun r -> self r.pass.analyze l_replay), "s");
        ("codec.encode_s", med (fun r -> self r.pass.record l_encode), "s");
        ("codec.decode_s", med (fun r -> self r.pass.analyze l_decode), "s");
        ("codec.incr_decode_ms", decode_s *. 1e3, "ms");
        ("codec.trace_mb", float_of_int last.trace_bytes /. 1e6, "MB");
        ("analyzer.access_s", med (fun r -> self r.pass.detect l_access +. self r.pass.analyze l_access), "s");
        ("analyzer.epoch_s", med (fun r -> self r.pass.detect l_epoch +. self r.pass.analyze l_epoch), "s");
        ("analyzer.sync_s", med (fun r -> self r.pass.detect l_sync +. self r.pass.analyze l_sync), "s");
        ( "analyzer.create_ms",
          med (fun r -> (self r.pass.detect l_create +. self r.pass.analyze l_create) /. 2.0) *. 1e3,
          "ms" );
        ("store.inserts", float_of_int last.bst.Tool.inserts_total, "count");
        ("store.fragments", float_of_int last.bst.Tool.fragments_total, "count");
        ("store.merges", float_of_int last.bst.Tool.merges_total, "count");
        ("store.nodes_peak", float_of_int last.bst.Tool.nodes_peak_total, "count");
        ( "store.merge_ratio",
          float_of_int last.bst.Tool.merges_total /. float_of_int (max 1 last.bst.Tool.inserts_total),
          "ratio" );
        ( "export.digest_ms",
          med (fun r -> (self r.pass.detect l_digest +. self r.pass.analyze l_digest) /. 2.0) *. 1e3,
          "ms" );
        ( "export.json_ms",
          med (fun r -> match r.pass.export with Some e -> self e l_json | None -> nan) *. 1e3,
          "ms" );
        ("export.races", float_of_int last.races, "count");
        ("serve.admit_ms", bulk_step (fun x -> seconds_between x.Serve_loop.connect x.Serve_loop.admitted), "ms");
        ("serve.stream_ms", bulk_step (fun x -> seconds_between x.Serve_loop.admitted x.Serve_loop.footer), "ms");
        ("serve.tail_ms", bulk_step (fun x -> seconds_between x.Serve_loop.footer x.Serve_loop.summary), "ms");
        ( "serve.io_share",
          1.0 -. ((decode_s +. replay_s) *. 1e3 /. bulk_step (fun x -> seconds_between x.Serve_loop.connect x.Serve_loop.summary)),
          "ratio" );
        ( "serve.events_ingested",
          float_of_int (s.bulk.Serve_loop.events + s.small.Serve_loop.events),
          "count" );
        ("serve.races_streamed", float_of_int (s.bulk.Serve_loop.races + s.small.Serve_loop.races), "count");
        gc 0 "alloc_mb" (fun g -> g.alloc_mb) "MB";
        gc 1 "alloc_mb" (fun g -> g.alloc_mb) "MB";
        gc 2 "alloc_mb" (fun g -> g.alloc_mb) "MB";
        gc 0 "major_collections" (fun g -> float_of_int g.major_collections) "count";
        gc 1 "major_collections" (fun g -> float_of_int g.major_collections) "count";
        gc 2 "major_collections" (fun g -> float_of_int g.major_collections) "count";
        gc 0 "top_heap_mb" (fun g -> g.top_heap_mb) "MB";
        gc 1 "top_heap_mb" (fun g -> g.top_heap_mb) "MB";
        gc 2 "top_heap_mb" (fun g -> g.top_heap_mb) "MB";
        ("ledger.detect_coverage", med (fun r -> Ledger.coverage r.pass.detect), "ratio");
        ("ledger.record_coverage", med (fun r -> Ledger.coverage r.pass.record), "ratio");
        ("ledger.analyze_coverage", med (fun r -> Ledger.coverage r.pass.analyze), "ratio");
        ("ledger.serve_coverage", med (fun r -> Ledger.coverage r.serve), "ratio");
        ("ledger.overhead_s", med wall -. median (List.map wall untraced), "s");
        ("host.probe_ms", probe_s *. 1e3, "ms");
      ]
  in
  if traced then begin
    let path = Filename.concat out_dir (Printf.sprintf "spans-%s-seed%d.json" w.name seed) in
    Ledger.write ledger ~path;
    Printf.printf "  spans: %s\n" path
  end;
  metrics

let refuse_rma_environment () =
  let set =
    Array.to_list (Unix.environment ())
    |> List.filter (String.starts_with ~prefix:"RMA_")
    |> List.map (fun kv -> List.hd (String.split_on_char '=' kv))
  in
  if set <> [] then begin
    Printf.eprintf
      "perfbench: refusing to run with %s set: the library reads these and would measure another \
       configuration; unset them\n"
      (String.concat ", " set);
    exit 2
  end

let main () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 20 and trace = ref 0 in
  let names = String.concat ", " (List.map (fun w -> w.name) workloads) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ names);
      ( "--seed",
        Arg.Set_int seed,
        Printf.sprintf "N workload seed (default %d; held-out seed %d)" default_seed held_out_seed );
      ("--seconds", Arg.Set_int seconds, "S measured seconds per run (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the per-layer ledger (1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  refuse_rma_environment ();
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "perfbench: unknown workload %S (one of %s)\n" !workload names;
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "perfbench: --trace takes 0 or 1"; exit 2);
  if !seconds < 1 then (prerr_endline "perfbench: --seconds must be positive"; exit 2);
  Rma_obs.Obs.disable ();
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Exit through [at_exit], which stops the daemons, when interrupted. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm; Sys.sighup ];
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let metrics = run w ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1) in
  List.iter (fun f -> prerr_endline ("perfbench: failed " ^ f)) (List.rev !failures);
  let failed = List.length !failures in
  print_endline
    (Json.to_string ~minify:true
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0));
            ("attempted", Json.Int !attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, v, unit) ->
                     (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
                   metrics) );
          ]));
  exit (if failed = 0 then 0 else 1)

let () =
  match Sys.argv with [| _; "daemon" |] -> Serve_loop.daemon_main () | _ -> main ()
