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

let sample () =
  if Obs.is_enabled () then begin
    let st = Gc.quick_stat () in
    Obs.set_gauge g_minor_words st.Gc.minor_words;
    Obs.set_gauge g_major_words st.Gc.major_words;
    Obs.set_gauge g_live_words (float_of_int st.Gc.live_words);
    Obs.set_gauge g_peak_rss (float_of_int (peak_rss_bytes ()))
  end
