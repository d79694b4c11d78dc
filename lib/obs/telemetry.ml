module Timer = Rma_util.Timer

(* Event throughput is counted with one plain [int ref] per domain
   (registered in [cells] on first use) instead of a shared Atomic: the
   stores call {!note_events} on every insert from up to eight worker
   domains, and a contended fetch-and-add there would serialise exactly
   the hot path the bench measures. Per-domain stores are unsynchronised
   on purpose — readers aggregate slightly stale values, never torn
   ones. *)
let cells_mu = Mutex.create ()
let cells : int ref list ref = ref []

let cell_key =
  Domain.DLS.new_key (fun () ->
      let r = ref 0 in
      Mutex.lock cells_mu;
      cells := r :: !cells;
      Mutex.unlock cells_mu;
      r)

let note_events n =
  let r = Domain.DLS.get cell_key in
  r := !r + n

let note_event () = note_events 1

let events_total () =
  Mutex.lock cells_mu;
  let t = List.fold_left (fun acc r -> acc + !r) 0 !cells in
  Mutex.unlock cells_mu;
  t

(* VmHWM is the kernel's high-water RSS mark for the process; on
   platforms without /proc we fall back to the GC's top-of-heap words,
   which undercounts (no stacks, no malloc'd C blocks) but keeps the
   field meaningful. *)
let proc_peak_rss_bytes () =
  match open_in "/proc/self/status" with
  | exception _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              let digits = String.to_seq line |> Seq.filter (fun c -> c >= '0' && c <= '9') in
              let s = String.of_seq digits in
              if s = "" then None else Some (int_of_string s * 1024)
            else scan ()
      in
      let r = scan () in
      close_in_noerr ic;
      r

let gc_heap_bytes () =
  let st = Gc.quick_stat () in
  st.Gc.top_heap_words * (Sys.word_size / 8)

let peak_rss_bytes () =
  match proc_peak_rss_bytes () with Some b -> b | None -> gc_heap_bytes ()

(* Gauges fed by sample(); registered once at module init. *)
let g_minor_words = Obs.gauge ~help:"GC minor words allocated" "telemetry.gc_minor_words"
let g_major_words = Obs.gauge ~help:"GC major words allocated" "telemetry.gc_major_words"
let g_live_words = Obs.gauge ~help:"GC live words at last sample" "telemetry.gc_live_words"
let g_peak_rss = Obs.gauge ~help:"peak resident set size in bytes" "telemetry.peak_rss_bytes"

let g_events_per_sec =
  Obs.gauge ~help:"store events processed per second (since last sample)"
    "telemetry.events_per_sec"

let g_events_total = Obs.gauge ~help:"store events processed since start" "telemetry.events_total"

(* ------------------------------------------------------------------ *)
(* Epoch-close latency SLO                                             *)
(* ------------------------------------------------------------------ *)

let h_epoch_close_ns =
  Obs.histogram ~unit_:"ns" ~help:"Wall time the analyzer spent handling each epoch close"
    "analyzer.epoch_close_ns"

let g_slo_p99 =
  Obs.gauge ~help:"p99 epoch-close handling latency at last sample (ms)"
    "slo.epoch_close_p99_ms"

let c_slo_burn =
  Obs.counter ~help:"Epoch closes slower than the RMA_SLO_EPOCH_CLOSE_MS threshold"
    "slo.epoch_close_burn_total"

let slo_threshold_ms = ref 100.0

let set_slo_epoch_close_ms ms = if ms > 0.0 then slo_threshold_ms := ms
let slo_epoch_close_ms () = !slo_threshold_ms

let note_epoch_close seconds =
  if Obs.is_enabled () then begin
    Obs.observe h_epoch_close_ns (seconds *. 1e9);
    if seconds *. 1000.0 > !slo_threshold_ms then Obs.incr c_slo_burn
  end

(* Last-sample state for the rate gauge; sampled from the main domain
   and from the telemetry server's domain, hence the mutex. *)
let sample_mu = Mutex.create ()
let last_t = ref 0.0
let last_events = ref 0

let sample () =
  if Obs.is_enabled () then begin
    let now = Timer.now () in
    let total = events_total () in
    let st = Gc.quick_stat () in
    Obs.set_gauge g_minor_words st.Gc.minor_words;
    Obs.set_gauge g_major_words st.Gc.major_words;
    Obs.set_gauge g_live_words (float_of_int st.Gc.live_words);
    Obs.set_gauge g_peak_rss (float_of_int (peak_rss_bytes ()));
    Obs.set_gauge g_events_total (float_of_int total);
    if Histogram.count h_epoch_close_ns > 0 then
      Obs.set_gauge g_slo_p99 (Histogram.quantile h_epoch_close_ns 0.99 /. 1e6);
    Mutex.lock sample_mu;
    let dt = now -. !last_t and de = total - !last_events in
    if !last_t > 0.0 && dt > 1e-6 then Obs.set_gauge g_events_per_sec (float_of_int de /. dt);
    last_t := now;
    last_events := total;
    Mutex.unlock sample_mu
  end

let reset_rate () =
  Mutex.lock sample_mu;
  last_t := 0.0;
  last_events := 0;
  Mutex.unlock sample_mu
