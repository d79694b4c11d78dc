let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let num v =
  (* JSON has no inf/nan literals; clamp pathological values to 0. *)
  if Float.is_finite v then Printf.sprintf "%.6g" v else "0"

let args_obj pairs =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (escape k) (escape v)) pairs)
  ^ "}"

(* One trace event as a JSON object; [extra] are pre-rendered fields. *)
let event ~name ~ph ~pid ~tid ?(cat = "") ?(ts = 0.0) ?(extra = []) () =
  let fields =
    [
      Printf.sprintf "\"name\":\"%s\"" (escape name);
      Printf.sprintf "\"ph\":\"%s\"" ph;
      Printf.sprintf "\"pid\":%d" pid;
      Printf.sprintf "\"tid\":%d" tid;
      Printf.sprintf "\"ts\":%s" (num ts);
    ]
    @ (if cat = "" then [] else [ Printf.sprintf "\"cat\":\"%s\"" (escape cat) ])
    @ extra
  in
  "{" ^ String.concat "," fields ^ "}"

let span_event (sp : Obs.span) =
  let ts = sp.Obs.sp_t0 *. 1e6 in
  let dur =
    let d = (sp.Obs.sp_t1 -. sp.Obs.sp_t0) *. 1e6 in
    if Float.is_finite d && d > 0.0 then d else 0.0
  in
  event ~name:sp.Obs.sp_name ~ph:"X" ~pid:sp.Obs.sp_pid ~tid:sp.Obs.sp_tid ~cat:sp.Obs.sp_cat ~ts
    ~extra:
      ([ Printf.sprintf "\"dur\":%s" (num dur) ]
      @ if sp.Obs.sp_args = [] then [] else [ "\"args\":" ^ args_obj sp.Obs.sp_args ])
    ()

let histogram_event h =
  let q p = num (Histogram.quantile h p) in
  event
    ~name:("hist:" ^ Histogram.name h)
    ~ph:"i" ~pid:Obs.wall_pid ~tid:0 ~cat:"histogram"
    ~extra:
      [
        "\"s\":\"g\"";
        "\"args\":"
        ^ args_obj
            [
              ("unit", Histogram.unit_label h);
              ("count", string_of_int (Histogram.count h));
              ("p50", q 0.50);
              ("p95", q 0.95);
              ("p99", q 0.99);
              ("max", num (Histogram.max_value h));
              ("mean", num (Histogram.mean h));
            ];
      ]
    ()

let counter_event (c : Obs.counter) =
  event ~name:c.Obs.c_name ~ph:"C" ~pid:Obs.wall_pid ~tid:0 ~cat:"counter"
    ~extra:[ Printf.sprintf "\"args\":{\"value\":%d}" c.Obs.c_value ]
    ()

let gauge_event (g : Obs.gauge) =
  event ~name:g.Obs.g_name ~ph:"C" ~pid:Obs.wall_pid ~tid:0 ~cat:"gauge"
    ~extra:[ Printf.sprintf "\"args\":{\"value\":%s}" (num g.Obs.g_value) ]
    ()

let metadata_events spans =
  let name_proc pid label =
    event ~name:"process_name" ~ph:"M" ~pid ~tid:0
      ~extra:[ "\"args\":" ^ args_obj [ ("name", label) ] ]
      ()
  in
  let name_thread pid tid label =
    event ~name:"thread_name" ~ph:"M" ~pid ~tid
      ~extra:[ "\"args\":" ^ args_obj [ ("name", label) ] ]
      ()
  in
  let sim_tracks =
    List.sort_uniq compare
      (List.filter_map
         (fun (sp : Obs.span) ->
           if sp.Obs.sp_pid >= 2 then Some (sp.Obs.sp_pid, sp.Obs.sp_tid) else None)
         spans)
  in
  let sim_pids = List.sort_uniq compare (List.map fst sim_tracks) in
  (name_proc Obs.wall_pid "harness (wall clock)"
  :: List.map
       (fun pid -> name_proc pid (Printf.sprintf "simulated run %d (sim clock)" (pid - 1)))
       sim_pids)
  @ List.map (fun (pid, tid) -> name_thread pid tid (Printf.sprintf "rank %d" tid)) sim_tracks

let to_json () =
  let spans = Obs.all_spans () in
  let events =
    metadata_events spans
    @ List.map span_event spans
    @ List.map histogram_event (List.filter (fun h -> Histogram.count h > 0) (Obs.all_histograms ()))
    @ List.map counter_event (Obs.all_counters ())
    @ List.map gauge_event (Obs.all_gauges ())
  in
  "{\"traceEvents\":[\n" ^ String.concat ",\n" events ^ "\n],\"displayTimeUnit\":\"ms\"}\n"

let write ~path () =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_json ()))
