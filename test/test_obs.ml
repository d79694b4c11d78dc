(* Rma_obs: histogram quantile accuracy, Chrome-trace span export, and
   the disabled-registry no-op guarantee that keeps the instrumented hot
   paths free when observability is off. *)

module Obs = Rma_obs.Obs
module Histogram = Rma_obs.Histogram

(* Obs is process-global; every test starts from a clean enabled
   registry and leaves it disabled for the suites that follow. *)
let with_obs f =
  Obs.enable ();
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

let test_histogram_percentiles () =
  with_obs @@ fun () ->
  let h = Obs.histogram ~unit_:"ms" "test.latency" in
  for i = 1 to 1000 do
    Obs.observe h (float_of_int i)
  done;
  Alcotest.(check int) "count" 1000 (Histogram.count h);
  (* The lowest quantile is clamped at the observed minimum. *)
  let p0 = Histogram.quantile h 0.0 in
  Alcotest.(check bool) "p0 within a bucket above the min" true (p0 >= 1.0 && p0 < 1.2);
  Alcotest.(check (float 1e-6)) "max" 1000.0 (Histogram.max_value h);
  Alcotest.(check (float 0.5)) "mean" 500.5 (Histogram.mean h);
  (* Log-scale buckets at 2^(1/4) spacing bound the quantile error by
     the half-bucket ratio, ~9%; allow 15% slack. *)
  List.iter
    (fun (q, expect) ->
      let v = Histogram.quantile h q in
      let err = Float.abs (v -. expect) /. expect in
      Alcotest.(check bool)
        (Printf.sprintf "p%g=%g within 15%% of %g" (q *. 100.0) v expect)
        true (err <= 0.15))
    [ (0.5, 500.0); (0.95, 950.0); (0.99, 990.0) ]

let test_histogram_constant_and_empty () =
  with_obs @@ fun () ->
  let h = Obs.histogram "test.constant" in
  Alcotest.(check (float 0.0)) "empty quantile" 0.0 (Histogram.quantile h 0.5);
  for _ = 1 to 10 do
    Obs.observe h 42.0
  done;
  (* Clamping to the observed [min,max] makes constant streams exact. *)
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "constant p%g" (q *. 100.0))
        42.0 (Histogram.quantile h q))
    [ 0.5; 0.95; 0.99 ];
  (* Zero (per-insert fragment counts when nothing fragments) lands in
     the underflow bucket, not on the log scale. *)
  let z = Obs.histogram "test.zeroes" in
  Obs.observe z 0.0;
  Obs.observe z 0.0;
  Alcotest.(check (float 1e-9)) "all-zero quantile" 0.0 (Histogram.quantile z 0.99)

let test_chrome_trace_spans () =
  with_obs @@ fun () ->
  (* Nested spans on a simulated-time track, recorded out of order. *)
  Obs.emit_span ~cat:"epoch" ~pid:2 ~tid:0 ~t0:1.0 ~t1:2.0 "inner";
  Obs.emit_span ~cat:"rank" ~pid:2 ~tid:0 ~t0:0.0 ~t1:4.0 "outer";
  let spans = Obs.all_spans () in
  Alcotest.(check int) "two spans" 2 (List.length spans);
  (* all_spans sorts by (pid, tid, t0): the enclosing span comes first,
     which is also the order Perfetto wants for nesting. *)
  (match spans with
  | [ a; b ] ->
      Alcotest.(check string) "outer sorts first" "outer" a.Obs.sp_name;
      Alcotest.(check string) "inner second" "inner" b.Obs.sp_name;
      Alcotest.(check bool) "inner nested inside outer" true
        (b.Obs.sp_t0 >= a.Obs.sp_t0 && b.Obs.sp_t1 <= a.Obs.sp_t1)
  | _ -> Alcotest.fail "expected exactly two spans");
  let json = Rma_obs.Chrome_trace.to_json () in
  let contains needle =
    let nl = String.length needle and hl = String.length json in
    let rec go i = i + nl <= hl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  let index_of needle =
    let nl = String.length needle and hl = String.length json in
    let rec go i = if i + nl > hl then -1 else if String.sub json i nl = needle then i else go (i + 1) in
    go 0
  in
  Alcotest.(check bool) "traceEvents array" true (contains "\"traceEvents\":[");
  Alcotest.(check bool) "complete events" true (contains "\"ph\":\"X\"");
  Alcotest.(check bool) "process metadata" true (contains "\"process_name\"");
  Alcotest.(check bool) "rank thread metadata" true (contains "rank 0");
  (* outer: ts 0, dur 4s = 4e6 us; inner: ts 1e6 us, dur 1e6 us. *)
  Alcotest.(check bool) "outer duration in us" true (contains "\"dur\":4e+06");
  Alcotest.(check bool) "outer precedes inner in the event stream" true
    (let o = index_of "\"name\":\"outer\"" and i = index_of "\"name\":\"inner\"" in
     o >= 0 && i >= 0 && o < i)

let test_chrome_trace_histogram_metadata () =
  with_obs @@ fun () ->
  let h = Obs.histogram ~unit_:"s" "test.insert_seconds" in
  Obs.observe h 0.5;
  let json = Rma_obs.Chrome_trace.to_json () in
  let contains needle =
    let nl = String.length needle and hl = String.length json in
    let rec go i = i + nl <= hl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "histogram instant event" true (contains "hist:test.insert_seconds");
  Alcotest.(check bool) "global instant scope" true (contains "\"s\":\"g\"");
  Alcotest.(check bool) "p99 in args" true (contains "\"p99\":")

let test_disabled_is_noop () =
  Obs.disable ();
  Obs.reset ();
  let c = Obs.counter "test.noop_counter" in
  let h = Obs.histogram "test.noop_hist" in
  let g = Obs.gauge "test.noop_gauge" in
  Obs.incr c;
  Obs.add c 10;
  Obs.observe h 1.0;
  Obs.set_gauge g 3.0;
  Alcotest.(check int) "counter untouched" 0 c.Obs.c_value;
  Alcotest.(check int) "histogram untouched" 0 (Histogram.count h);
  Alcotest.(check (float 0.0)) "gauge untouched" 0.0 g.Obs.g_value;
  Alcotest.(check bool) "start_span yields None" true
    (Obs.start_span ~pid:Obs.wall_pid ~tid:0 "nope" = None);
  Obs.emit_span ~pid:Obs.wall_pid ~tid:0 ~t0:0.0 ~t1:1.0 "nope";
  Alcotest.(check int) "no spans recorded" 0 (List.length (Obs.all_spans ()));
  (* time_span still measures (callers rely on the duration) but stores
     nothing. *)
  let x, dt = Obs.time_span "quiet" (fun () -> 7) in
  Alcotest.(check int) "thunk result" 7 x;
  Alcotest.(check bool) "duration measured" true (dt >= 0.0);
  Alcotest.(check int) "still no spans" 0 (List.length (Obs.all_spans ()))

let test_span_cap () =
  with_obs @@ fun () ->
  Obs.set_span_cap 2;
  for i = 1 to 5 do
    Obs.emit_span ~pid:Obs.wall_pid ~tid:0 ~t0:(float_of_int i) ~t1:(float_of_int i +. 0.5)
      (Printf.sprintf "c%d" i)
  done;
  Alcotest.(check int) "cap enforced" 2 (List.length (Obs.all_spans ()));
  Alcotest.(check bool) "start_span over the cap yields None" true
    (Obs.start_span ~pid:Obs.wall_pid ~tid:0 "over" = None);
  Obs.set_span_cap 1_000_000

let test_time_span_categories () =
  with_obs @@ fun () ->
  let (), d1 = Obs.time_span ~cat:"phase" "a" (fun () -> ()) in
  let (), d2 = Obs.time_span ~cat:"phase" "b" (fun () -> ()) in
  let total = Option.value ~default:0.0 (List.assoc_opt "phase" (Obs.all_categories ())) in
  Alcotest.(check bool) "category accumulates both spans" true
    (total >= 0.0 && total +. 1e-9 >= d1 +. d2 -. 1e-6);
  Alcotest.(check int) "both spans stored" 2 (List.length (Obs.all_spans ()))

let test_prometheus_and_summary () =
  with_obs @@ fun () ->
  let c = Obs.counter ~help:"events seen" "test.events" in
  Obs.add c 5;
  let h = Obs.histogram ~unit_:"s" "test.latency_seconds" in
  Obs.observe h 0.25;
  let text = Rma_obs.Prometheus.to_text () in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counter sample" true (contains text "rma_test_events 5");
  Alcotest.(check bool) "quantile sample" true
    (contains text "rma_test_latency_seconds{quantile=\"0.99\"}");
  Alcotest.(check bool) "count sample" true (contains text "rma_test_latency_seconds_count 1");
  let summary = Rma_obs.Summary.to_string () in
  Alcotest.(check bool) "summary names the histogram" true (contains summary "test.latency_seconds");
  Alcotest.(check bool) "summary names the counter" true (contains summary "test.events")

let test_prometheus_escaping () =
  with_obs @@ fun () ->
  let module Prometheus = Rma_obs.Prometheus in
  let module Events = Rma_obs.Events in
  (* Unit behaviour first: label values escape backslash, newline and
     the double quote (exposition format); HELP text, which keeps the
     quote, is pinned through [to_text] below. *)
  Alcotest.(check string) "label value escaping" {|a\\b\nc \"quoted\"|}
    (Prometheus.escape_label_value "a\\b\nc \"quoted\"");
  (* Then end-to-end: a run id and HELP strings stuffed with every
     special character must render as the golden exposition text. *)
  Events.with_run_id "run\"esc\\7\nnext"
    (fun () ->
      let c = Obs.counter ~help:"seen at C:\\tmp \"races\"\nsecond line" "esc.events" in
      Obs.add c 3;
      let g = Obs.gauge ~help:"gauge with a \\ and a\nbreak" "esc.depth" in
      Obs.set_gauge g 1.5;
      let text =
        Prometheus.to_text
          ~filter:(fun name ->
            name = "run_info" || String.length name >= 4 && String.sub name 0 4 = "esc.")
          ()
      in
      (* GOLDEN_OUT_PROM=/abs/path (or GOLDEN_OUT_DIR, see
         test/golden_regen.ml) regenerates the golden file instead of
         comparing. *)
      Golden_regen.check ~name:"prometheus_escaping.txt"
        ~what:"exposition text matches the golden file" text)

let suite =
  [
    Alcotest.test_case "histogram percentiles (log buckets)" `Quick test_histogram_percentiles;
    Alcotest.test_case "histogram constant/empty/zero streams" `Quick
      test_histogram_constant_and_empty;
    Alcotest.test_case "chrome trace span nesting and order" `Quick test_chrome_trace_spans;
    Alcotest.test_case "chrome trace histogram metadata" `Quick
      test_chrome_trace_histogram_metadata;
    Alcotest.test_case "disabled registry is a no-op" `Quick test_disabled_is_noop;
    Alcotest.test_case "span cap" `Quick test_span_cap;
    Alcotest.test_case "time_span feeds category accumulators" `Quick test_time_span_categories;
    Alcotest.test_case "prometheus + summary exporters" `Quick test_prometheus_and_summary;
    Alcotest.test_case "prometheus exposition escaping (golden)" `Quick test_prometheus_escaping;
  ]
