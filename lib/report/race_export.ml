open Rma_access
open Rma_analysis
module Json = Rma_util.Json
module Flight_recorder = Rma_store.Flight_recorder

(* v2 added the optional [run_id] header cross-linking a verdict file to
   the event journal of the run that produced it; v3 added the
   [predicted] flag and schedulable-race [witness] of predictive mode.
   v2 files still load — and the emitted header version is ADAPTIVE:
   a file with no predicted race is written as v2, so every
   observed-only export stays byte-identical to pre-predictive builds.
   Every v2 writer emits each race's [degraded] flag. *)
let schema_version = 3
let min_schema_version = 2

let used_schema_version reports =
  if List.exists (fun (r : Report.t) -> r.Report.provenance.Report.predicted) reports then
    schema_version
  else 2

(* ------------------------------------------------------------------ *)
(* JSON encoding                                                       *)
(* ------------------------------------------------------------------ *)

let json_of_debug (d : Debug_info.t) =
  Json.Obj
    [
      ("file", Json.String d.Debug_info.file);
      ("line", Json.Int d.Debug_info.line);
      ("operation", Json.String d.Debug_info.operation);
    ]

(* Thread fields are emitted only for a non-default issuing-thread
   identity, so single-thread race files are byte-identical to the
   thread-oblivious schema (the identity is reconstructed from the
   issuer on decode). *)
let json_of_access (a : Access.t) =
  Json.Obj
    ([
       ("lo", Json.Int (Interval.lo a.Access.interval));
       ("hi", Json.Int (Interval.hi a.Access.interval));
       ("kind", Json.String (Access_kind.to_string a.Access.kind));
       ("issuer", Json.Int a.Access.issuer);
       ("seq", Json.Int a.Access.seq);
       ("debug", json_of_debug a.Access.debug);
     ]
    @
    if Access.is_default_thread a then []
    else
      [
        ("thread", Json.Int a.Access.thread.Access.tid);
        ("thread_stamp", Json.Int a.Access.thread.Access.tstamp);
        ( "thread_view",
          Json.List
            (List.map
               (fun (c, v) -> Json.List [ Json.Int c; Json.Int v ])
               a.Access.thread.Access.tview) );
      ])

let json_of_origin (o : Flight_recorder.origin) =
  Json.Obj
    [ ("access", json_of_access o.Flight_recorder.access); ("epoch", Json.Int o.Flight_recorder.epoch) ]

let json_of_clock comps =
  Json.List (List.map (fun (t, v) -> Json.List [ Json.Int t; Json.Int v ]) comps)

let json_of_witness (w : Report.witness) =
  Json.Obj
    [
      ("phase", Json.Int w.Report.w_phase);
      ("weak_existing", json_of_clock w.Report.w_existing_clock);
      ("weak_incoming", json_of_clock w.Report.w_incoming_clock);
      ("observed_existing", json_of_clock w.Report.w_observed_existing);
      ("observed_incoming", json_of_clock w.Report.w_observed_incoming);
      ("reorder", Json.String w.Report.w_reorder);
    ]

let json_of_report (r : Report.t) =
  let p = r.Report.provenance in
  Json.Obj
    ([
      ("id", Json.Int p.Report.id);
      ("tool", Json.String r.Report.tool);
      ("space", Json.Int r.Report.space);
      ("win", match r.Report.win with Some w -> Json.Int w | None -> Json.Null);
      ("sim_time", Json.Float r.Report.sim_time);
      ("matrix_cell", Json.String (Report.matrix_cell r));
      ("message", Json.String (Report.to_message r));
      ("existing", json_of_access r.Report.existing);
      ("incoming", json_of_access r.Report.incoming);
      ("epoch", match p.Report.epoch with Some e -> Json.Int e | None -> Json.Null);
      ( "vclock",
        match p.Report.vclock with
        | Some comps ->
            Json.List (List.map (fun (t, v) -> Json.List [ Json.Int t; Json.Int v ]) comps)
        | None -> Json.Null );
      ("existing_history", Json.List (List.map json_of_origin p.Report.existing_history));
      ("incoming_history", Json.List (List.map json_of_origin p.Report.incoming_history));
      ("degraded", Json.Bool p.Report.degraded);
    ]
    @
    (* Emitted only for predicted races: observed reports keep the exact
       v2 field set, so observed-only files are byte-identical. *)
    if not p.Report.predicted then []
    else
      ("predicted", Json.Bool true)
      :: (match p.Report.witness with Some w -> [ ("witness", json_of_witness w) ] | None -> []))

let report_json = json_of_report

let to_json ?run_id ~generator reports =
  Json.Obj
    (("schema_version", Json.Int (used_schema_version reports))
     :: ("generator", Json.String generator)
     :: (match run_id with Some r -> [ ("run_id", Json.String r) ] | None -> [])
    @ [
        ("race_count", Json.Int (List.length reports));
        ("races", Json.List (List.map json_of_report reports));
      ])

(* ------------------------------------------------------------------ *)
(* JSON decoding                                                       *)
(* ------------------------------------------------------------------ *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)

let opt_field name conv j =
  match Json.member name j with
  | None | Some Json.Null -> Ok None
  | Some v -> (
      match conv v with
      | Some v -> Ok (Some v)
      | None -> Error (Printf.sprintf "ill-typed field %S" name))

let kind_of_string s =
  List.find_opt (fun k -> String.equal (Access_kind.to_string k) s) Access_kind.all

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let vclock_component_of_json j =
  match Json.to_list j with
  | Some [ t; v ] -> (
      match (Json.to_int t, Json.to_int v) with
      | Some t, Some v -> Ok (t, v)
      | _ -> Error "ill-typed vclock component")
  | _ -> Error "ill-typed vclock component"

let access_of_json j =
  let* lo = field "lo" Json.to_int j in
  let* hi = field "hi" Json.to_int j in
  let* kind_name = field "kind" Json.to_str j in
  let* kind =
    match kind_of_string kind_name with
    | Some k -> Ok k
    | None -> Error (Printf.sprintf "unknown access kind %S" kind_name)
  in
  let* issuer = field "issuer" Json.to_int j in
  let* seq = field "seq" Json.to_int j in
  let* debug_json = field "debug" Option.some j in
  let* file = field "file" Json.to_str debug_json in
  let* line = field "line" Json.to_int debug_json in
  let* operation = field "operation" Json.to_str debug_json in
  if lo > hi then Error (Printf.sprintf "bad interval [%d...%d]" lo hi)
  else
    let* thread =
      match Json.member "thread" j with
      | None | Some Json.Null -> Ok (Access.default_thread ~issuer)
      | Some tid_json -> (
          match Json.to_int tid_json with
          | None -> Error "ill-typed field \"thread\""
          | Some tid ->
              let* tstamp = field "thread_stamp" Json.to_int j in
              let* view = field "thread_view" Json.to_list j in
              let* tview = map_result vclock_component_of_json view in
              Ok { Access.tid; tstamp; tview })
    in
    Ok
      (Access.make_threaded ~thread ~interval:(Interval.make ~lo ~hi) ~kind ~issuer ~seq
         ~debug:(Debug_info.make ~file ~line ~operation))

let origin_of_json j =
  let* access_json = field "access" Option.some j in
  let* access = access_of_json access_json in
  let* epoch = field "epoch" Json.to_int j in
  Ok { Flight_recorder.access; epoch }

let report_of_json j =
  let* id = field "id" Json.to_int j in
  let* tool = field "tool" Json.to_str j in
  let* space = field "space" Json.to_int j in
  let* win = opt_field "win" Json.to_int j in
  let* sim_time = field "sim_time" Json.to_float j in
  let* existing = field "existing" Option.some j in
  let* existing = access_of_json existing in
  let* incoming = field "incoming" Option.some j in
  let* incoming = access_of_json incoming in
  let* epoch = opt_field "epoch" Json.to_int j in
  let* vclock =
    match Json.member "vclock" j with
    | None | Some Json.Null -> Ok None
    | Some v -> (
        match Json.to_list v with
        | None -> Error "ill-typed field \"vclock\""
        | Some comps ->
            let* comps = map_result vclock_component_of_json comps in
            Ok (Some comps))
  in
  let* existing_history =
    let* l = field "existing_history" Json.to_list j in
    map_result origin_of_json l
  in
  let* incoming_history =
    let* l = field "incoming_history" Json.to_list j in
    map_result origin_of_json l
  in
  let* degraded = field "degraded" Json.to_bool j in
  (* v3 fields; absent (observed race, or pre-predictive file) = false. *)
  let* predicted = opt_field "predicted" Json.to_bool j in
  let predicted = Option.value predicted ~default:false in
  let* witness =
    match Json.member "witness" j with
    | None | Some Json.Null -> Ok None
    | Some wj ->
        let clock_field name =
          let* l = field name Json.to_list wj in
          map_result vclock_component_of_json l
        in
        let* w_phase = field "phase" Json.to_int wj in
        let* w_existing_clock = clock_field "weak_existing" in
        let* w_incoming_clock = clock_field "weak_incoming" in
        let* w_observed_existing = clock_field "observed_existing" in
        let* w_observed_incoming = clock_field "observed_incoming" in
        let* w_reorder = field "reorder" Json.to_str wj in
        Ok
          (Some
             {
               Report.w_phase;
               w_existing_clock;
               w_incoming_clock;
               w_observed_existing;
               w_observed_incoming;
               w_reorder;
             })
  in
  let provenance =
    {
      Report.id;
      epoch;
      vclock;
      existing_history;
      incoming_history;
      degraded;
      predicted;
      witness;
    }
  in
  Ok (Report.make ~tool ~space ~win ~existing ~incoming ~sim_time ~provenance ())

let of_json_with_run_id j =
  let* version = field "schema_version" Json.to_int j in
  if version < min_schema_version || version > schema_version then
    Error
      (Printf.sprintf "unsupported race schema version %d (expected %d..%d)" version
         min_schema_version schema_version)
  else
    (* Optional: a run without --obs never had one. *)
    let run_id = Option.bind (Json.member "run_id" j) Json.to_str in
    let* races = field "races" Json.to_list j in
    let* reports = map_result report_of_json races in
    Ok (reports, run_id)

let write_json ~path ?run_id ~generator reports = Json.write ~path (to_json ?run_id ~generator reports)

let load_json_with_run_id ~path =
  let* j = Json.load ~path in
  of_json_with_run_id j

(* ------------------------------------------------------------------ *)
(* SARIF 2.1.0                                                         *)
(* ------------------------------------------------------------------ *)

let rule_id = "mpi-rma-data-race"

let sarif_location ?message (d : Debug_info.t) =
  let physical =
    Json.Obj
      [
        ("artifactLocation", Json.Obj [ ("uri", Json.String d.Debug_info.file) ]);
        ("region", Json.Obj [ ("startLine", Json.Int (max 1 d.Debug_info.line)) ]);
      ]
  in
  let fields = [ ("physicalLocation", physical) ] in
  let fields =
    match message with
    | Some m -> fields @ [ ("message", Json.Obj [ ("text", Json.String m) ]) ]
    | None -> fields
  in
  Json.Obj fields

let sarif_result (r : Report.t) =
  let p = r.Report.provenance in
  let side_message role (a : Access.t) =
    Printf.sprintf "%s %s access %s by rank %d%s" role
      (Access_kind.to_string a.Access.kind)
      (Interval.to_string a.Access.interval)
      a.Access.issuer
      (if a.Access.thread.Access.tid = 0 then ""
       else Printf.sprintf " (thread %d)" a.Access.thread.Access.tid)
  in
  (* Primary location: the incoming statement. Every other contributing
     source location — the existing side plus all flight-recorder
     origins whose debug info the tree no longer holds — goes into
     relatedLocations, so tooling shows the full set even for merged
     nodes. *)
  let related =
    let incoming_debug = r.Report.incoming.Access.debug in
    List.filter_map
      (fun (d : Debug_info.t) ->
        if Debug_info.equal d incoming_debug then None
        else
          Some
            (sarif_location
               ~message:(Printf.sprintf "contributing access (%s)" d.Debug_info.operation)
               d))
      (Report.contributing_debugs r)
  in
  let properties =
    [
      ("raceId", Json.Int p.Report.id);
      ("tool", Json.String r.Report.tool);
      ("space", Json.Int r.Report.space);
      ("window", match r.Report.win with Some w -> Json.Int w | None -> Json.Null);
      ("simTime", Json.Float r.Report.sim_time);
      ("matrixCell", Json.String (Report.matrix_cell r));
      ("epoch", match p.Report.epoch with Some e -> Json.Int e | None -> Json.Null);
      ( "existingHistory",
        Json.List (List.map json_of_origin p.Report.existing_history) );
      ( "incomingHistory",
        Json.List (List.map json_of_origin p.Report.incoming_history) );
    ]
  in
  let properties =
    match p.Report.vclock with
    | Some comps ->
        properties
        @ [
            ( "vclock",
              Json.List (List.map (fun (t, v) -> Json.List [ Json.Int t; Json.Int v ]) comps) );
          ]
    | None -> properties
  in
  (* A race found on a budget-degraded store may rest on coarsened or
     spilled intervals: keep it visible but downgrade it so triage can
     rank exact verdicts above best-effort ones (DESIGN.md §11). *)
  let level, properties =
    if p.Report.degraded then
      ("warning", properties @ [ ("confidence", Json.String "downgraded") ])
    else ("error", properties)
  in
  (* A predicted race was NOT taken by the observed run — some legal
     schedule takes it. Downgrade to warning and attach the witness so
     triage tools can render the reordering. *)
  let level, properties =
    if not p.Report.predicted then (level, properties)
    else
      ( "warning",
        properties
        @ ("predicted", Json.Bool true)
          :: (match p.Report.witness with
             | Some w -> [ ("witness", json_of_witness w) ]
             | None -> []) )
  in
  Json.Obj
    [
      ("ruleId", Json.String rule_id);
      ("level", Json.String level);
      ("message", Json.Obj [ ("text", Json.String (Report.to_message r)) ]);
      ( "locations",
        Json.List
          [
            sarif_location
              ~message:(side_message "incoming" r.Report.incoming)
              r.Report.incoming.Access.debug;
          ] );
      ( "relatedLocations",
        Json.List
          (sarif_location
             ~message:(side_message "existing" r.Report.existing)
             r.Report.existing.Access.debug
          :: related) );
      ("properties", Json.Obj properties);
    ]

let to_sarif ?run_id ~generator reports =
  let driver =
    Json.Obj
      [
        ("name", Json.String "rma-race");
        ("informationUri", Json.String "https://github.com/rma-race/rma-race");
        ("version", Json.String "1.0.0");
        ( "rules",
          Json.List
            [
              Json.Obj
                [
                  ("id", Json.String rule_id);
                  ( "shortDescription",
                    Json.Obj [ ("text", Json.String "Data race between MPI-RMA accesses") ] );
                  ( "fullDescription",
                    Json.Obj
                      [
                        ( "text",
                          Json.String
                            "Two accesses to overlapping byte ranges, at least one one-sided and \
                             at least one a write, with no synchronization ordering them \
                             (Figure 3 of 'Rethinking Data Race Detection in MPI-RMA \
                             Programs')." );
                      ] );
                  ("defaultConfiguration", Json.Obj [ ("level", Json.String "error") ]);
                ];
            ] );
      ]
  in
  Json.Obj
    [
      ("$schema", Json.String "https://json.schemastore.org/sarif-2.1.0.json");
      ("version", Json.String "2.1.0");
      ( "runs",
        Json.List
          [
            Json.Obj
              ([
                 ("tool", Json.Obj [ ("driver", driver) ]);
                 ( "automationDetails",
                   Json.Obj [ ("id", Json.String generator) ] );
                 ("results", Json.List (List.map sarif_result reports));
               ]
              @
              (* Run-level property bag, not per-result: one journal
                 covers every race of the run. Absent when the run had
                 no journal, which keeps pre-PR7 golden files stable. *)
              match run_id with
              | Some r -> [ ("properties", Json.Obj [ ("runId", Json.String r) ]) ]
              | None -> []);
          ] );
    ]

let write_sarif ~path ?run_id ~generator reports =
  Json.write ~path (to_sarif ?run_id ~generator reports)

(* ------------------------------------------------------------------ *)
(* Verdict digest                                                      *)
(* ------------------------------------------------------------------ *)

(* The replay contract is byte-identical *verdicts*, not byte-identical
   files (ids are renumbered per export, sim times embed config): the
   digest covers each race's rendered message — tool, matrix cell, both
   accesses with debug info — in stored order. *)
let verdict_digest reports =
  reports
  |> List.map (fun (r : Report.t) -> Report.to_message r)
  |> String.concat "\n"
  |> Digest.string
  |> Digest.to_hex

(* ------------------------------------------------------------------ *)
(* Explain                                                             *)
(* ------------------------------------------------------------------ *)

let find_race ~id reports =
  match List.find_opt (fun r -> r.Report.provenance.Report.id = id) reports with
  | Some _ as found -> found
  | None -> List.nth_opt (List.filter (fun r -> r.Report.provenance.Report.id = 0) reports) (id - 1)

let explain (r : Report.t) =
  let p = r.Report.provenance in
  let buf = Buffer.create 1024 in
  let say fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  say "race #%d — %s" p.Report.id r.Report.tool;
  say "  %s" (Report.to_message r);
  say "";
  say "where:    rank %d's address space%s, simulated time %.6f s" r.Report.space
    (match r.Report.win with None -> "" | Some w -> Printf.sprintf ", window %d" w)
    r.Report.sim_time;
  (match p.Report.epoch with Some e -> say "epoch:    %d" e | None -> ());
  say "verdict:  Figure 3 cell %s" (Report.matrix_cell r);
  (* Predicted (schedulable) races carry the weak-order witness; the
     section is absent for observed races, keeping their rendering
     byte-identical to pre-predictive builds. *)
  if p.Report.predicted then begin
    say "class:    schedulable race — not overlapped by the observed run, but no MPI";
    say "          synchronization (fence / fully flushed barrier) orders the two accesses";
    match p.Report.witness with
    | None -> ()
    | Some w ->
        let clock_str comps =
          if comps = [] then "{}"
          else
            "{ "
            ^ String.concat ", " (List.map (fun (t, v) -> Printf.sprintf "%d:%d" t v) comps)
            ^ " }"
        in
        say "witness:  weak phase %d" w.Report.w_phase;
        say "          weak clocks:     existing %s  incoming %s"
          (clock_str w.Report.w_existing_clock)
          (clock_str w.Report.w_incoming_clock);
        say "          observed clocks: existing %s  incoming %s"
          (clock_str w.Report.w_observed_existing)
          (clock_str w.Report.w_observed_incoming);
        say "          reordering: %s" w.Report.w_reorder
  end;
  (match p.Report.vclock with
  | Some comps ->
      say "vclock:   %s"
        (if comps = [] then "{}"
         else
           "{ "
           ^ String.concat ", " (List.map (fun (t, v) -> Printf.sprintf "%d:%d" t v) comps)
           ^ " }")
  | None -> ());
  say "";
  let side label (a : Access.t) (history : Flight_recorder.origin list) =
    say "%s %s" label (Access.to_string a);
    match history with
    | [] -> say "    (no interval history — flight recorder off or evicted)"
    | history ->
        say "    interval history (%d origin access%s, oldest first):" (List.length history)
          (if List.length history = 1 then "" else "es");
        List.iter
          (fun (o : Flight_recorder.origin) ->
            let a = o.Flight_recorder.access in
            say "      epoch %d  seq %-6d %s %s from %s" o.Flight_recorder.epoch a.Access.seq
              (Access_kind.to_string a.Access.kind)
              (Interval.to_string a.Access.interval)
              (Debug_info.to_string a.Access.debug))
          history
  in
  side "existing:" r.Report.existing p.Report.existing_history;
  say "";
  side "incoming:" r.Report.incoming p.Report.incoming_history;
  Buffer.contents buf
