module Json = Rma_util.Json
module Lines = Rma_util.Lines

type error = { at_line : int; reason : string }

let error_to_string e =
  if e.at_line = 0 then e.reason else Printf.sprintf "line %d: %s" e.at_line e.reason

type read = { events : Events.t list; lines : int; error : error option }

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)

let parse_line line =
  let* j = Json.of_string line in
  let* ts = field "ts" Json.to_float j in
  let* level_name = field "level" Json.to_str j in
  let* level =
    match Events.level_of_string level_name with
    | Some l -> Ok l
    | None -> Error (Printf.sprintf "unknown level %s" (Lines.quote level_name))
  in
  let* component = field "component" Json.to_str j in
  let* run_id = field "run_id" Json.to_str j in
  let* span_id = field "span_id" Json.to_int j in
  let* kv_obj = field "kv" Json.to_obj j in
  let* kv =
    List.fold_left
      (fun acc (k, v) ->
        let* acc = acc in
        match Json.to_str v with
        | Some s -> Ok ((k, s) :: acc)
        | None -> Error (Printf.sprintf "ill-typed kv value for %s" (Lines.quote k)))
      (Ok []) kv_obj
  in
  Ok { Events.ts; level; component; run_id; span_id; kv = List.rev kv }

let read_channel ic =
  let events = ref [] and lineno = ref 0 in
  let exception Stop of error in
  let emit line =
    incr lineno;
    (* A flushed-but-empty trailing line is normal, not corruption. *)
    if String.trim line <> "" then
      match parse_line line with
      | Ok ev -> events := ev :: !events
      | Error reason -> raise_notrace (Stop { at_line = !lineno; reason })
  in
  let read lines error = { events = List.rev !events; lines; error } in
  match Lines.iter_channel ic emit with
  | true -> read !lineno None
  | false ->
      let at_line = !lineno + 1 in
      read at_line (Some { at_line; reason = "line too long" })
  | exception Stop e -> read e.at_line (Some e)

let read_file path =
  match open_in path with
  | exception Sys_error msg -> { events = []; lines = 0; error = Some { at_line = 0; reason = msg } }
  | ic -> Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> read_channel ic)

(* ------------------------------------------------------------------ *)
(* Filtering                                                           *)
(* ------------------------------------------------------------------ *)

type filter = {
  f_component : string option;
  f_min_level : Events.level option;
  f_run_id : string option;
  f_since : float option;
  f_until : float option;
}

let no_filter =
  { f_component = None; f_min_level = None; f_run_id = None; f_since = None; f_until = None }

let matches f (ev : Events.t) =
  let opt cond = function None -> true | Some v -> cond v in
  opt (String.equal ev.Events.component) f.f_component
  && opt (fun l -> Events.severity ev.Events.level >= Events.severity l) f.f_min_level
  && opt (String.equal ev.Events.run_id) f.f_run_id
  && opt (fun t -> ev.Events.ts >= t) f.f_since
  && opt (fun t -> ev.Events.ts <= t) f.f_until

let filter_events f events = List.filter (matches f) events

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

type percentiles = { p_count : int; p50 : float; p95 : float; p99 : float }

let percentiles_of values =
  match values with
  | [] -> None
  | _ ->
      let a = Array.of_list values in
      Array.sort compare a;
      let n = Array.length a in
      (* Nearest-rank: the smallest value with at least q*n values at or
         below it. *)
      let at q = a.(min (n - 1) (max 0 (int_of_float (ceil (q *. float_of_int n)) - 1))) in
      Some { p_count = n; p50 = at 0.5; p95 = at 0.95; p99 = at 0.99 }

type stats = {
  total : int;
  run_ids : string list;
  t_min : float;
  t_max : float;
  by_component : (string * int) list;
  by_level : (Events.level * int) list;
  epoch_overall : percentiles option;
  epoch_by_rank : (int * percentiles) list;
  degradations : int;
  read_errors : int;
  timeline : (int * int) list;
}

let kv_find (ev : Events.t) key = List.assoc_opt key ev.Events.kv
let kind_of ev = kv_find ev "event"

let bump tbl key n =
  Hashtbl.replace tbl key (n + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let sorted_bindings tbl cmp =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort (fun (a, _) (b, _) -> cmp a b)

let stats_of events =
  let by_component = Hashtbl.create 8 in
  let by_level = Hashtbl.create 4 in
  let timeline = Hashtbl.create 16 in
  let run_ids = ref [] in
  let t_min = ref infinity and t_max = ref neg_infinity in
  (* Epoch durations: an [epoch_open] parks its timestamp under the
     epoch span id; the [epoch_close] sharing that span id closes the
     pair. Span id 0 (journal written without spans) cannot be paired. *)
  let open_epochs : (int, float * int) Hashtbl.t = Hashtbl.create 32 in
  let durations = ref [] in
  let durations_by_rank : (int, float list ref) Hashtbl.t = Hashtbl.create 8 in
  let degradations = ref 0 and read_errors = ref 0 in
  List.iter
    (fun (ev : Events.t) ->
      bump by_component ev.Events.component 1;
      bump by_level ev.Events.level 1;
      bump timeline (int_of_float (Float.max 0.0 ev.Events.ts)) 1;
      if not (List.mem ev.Events.run_id !run_ids) then run_ids := ev.Events.run_id :: !run_ids;
      if ev.Events.ts < !t_min then t_min := ev.Events.ts;
      if ev.Events.ts > !t_max then t_max := ev.Events.ts;
      let rank = Option.bind (kv_find ev "rank") int_of_string_opt in
      (match kind_of ev with
      | Some "epoch_open" when ev.Events.span_id <> 0 ->
          Hashtbl.replace open_epochs ev.Events.span_id
            (ev.Events.ts, Option.value ~default:(-1) rank)
      | Some "epoch_close" when ev.Events.span_id <> 0 -> (
          match Hashtbl.find_opt open_epochs ev.Events.span_id with
          | None -> ()
          | Some (t0, rank) ->
              Hashtbl.remove open_epochs ev.Events.span_id;
              let d = Float.max 0.0 (ev.Events.ts -. t0) in
              durations := d :: !durations;
              let per =
                match Hashtbl.find_opt durations_by_rank rank with
                | Some l -> l
                | None ->
                    let l = ref [] in
                    Hashtbl.replace durations_by_rank rank l;
                    l
              in
              per := d :: !per)
      | Some "budget_degradation" -> incr degradations
      | Some "read_error" -> incr read_errors
      | _ -> ()))
    events;
  {
    total = List.length events;
    run_ids = List.rev !run_ids;
    t_min = (if !t_min = infinity then 0.0 else !t_min);
    t_max = (if !t_max = neg_infinity then 0.0 else !t_max);
    by_component = sorted_bindings by_component String.compare;
    by_level = sorted_bindings by_level (fun a b -> compare (Events.severity a) (Events.severity b));
    epoch_overall = percentiles_of !durations;
    epoch_by_rank =
      sorted_bindings durations_by_rank Int.compare
      |> List.filter_map (fun (rank, l) ->
             Option.map (fun p -> (rank, p)) (percentiles_of !l));
    degradations = !degradations;
    read_errors = !read_errors;
    timeline = sorted_bindings timeline Int.compare;
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let render_stats ?source ?error s =
  let module Table = Rma_util.Text_table in
  let buf = Buffer.create 2048 in
  let say fmt = Printf.ksprintf (fun str -> Buffer.add_string buf str; Buffer.add_char buf '\n') fmt in
  say "journal stats%s" (match source with Some p -> ": " ^ p | None -> "");
  say "  events:   %d%s" s.total
    (if s.total = 0 then "" else Printf.sprintf " over %.3f s" (Float.max 0.0 (s.t_max -. s.t_min)));
  say "  run ids:  %s" (if s.run_ids = [] then "(none)" else String.concat ", " s.run_ids);
  (match error with
  | Some e -> say "  TRUNCATED: journal unreadable past %s" (error_to_string e)
  | None -> ());
  if s.by_component <> [] then begin
    let t =
      Table.create ~title:"Events by component"
        ~columns:[ ("Component", Table.Left); ("Events", Table.Right) ]
        ()
    in
    List.iter (fun (c, n) -> Table.add_row t [ c; string_of_int n ]) s.by_component;
    Buffer.add_string buf (Table.render t)
  end;
  let pct_row label p =
    [
      label; string_of_int p.p_count;
      Printf.sprintf "%.3f" (p.p50 *. 1000.0);
      Printf.sprintf "%.3f" (p.p95 *. 1000.0);
      Printf.sprintf "%.3f" (p.p99 *. 1000.0);
    ]
  in
  (match s.epoch_overall with
  | None -> say "  epochs:   none reconstructed (journal below debug level, or span ids absent)"
  | Some overall ->
      let t =
        Table.create ~title:"Wall time each epoch stayed open, epoch_open to epoch_close (ms)"
          ~columns:
            [ ("Rank", Table.Left); ("Epochs", Table.Right); ("p50", Table.Right);
              ("p95", Table.Right); ("p99", Table.Right) ]
          ()
      in
      Table.add_row t (pct_row "all" overall);
      List.iter
        (fun (rank, p) -> Table.add_row t (pct_row (string_of_int rank) p))
        s.epoch_by_rank;
      Buffer.add_string buf (Table.render t));
  let t =
    Table.create ~title:"Faults and degradations"
      ~columns:[ ("Kind", Table.Left); ("Count", Table.Right) ]
      ()
  in
  List.iter
    (fun (k, n) -> Table.add_row t [ k; string_of_int n ])
    [ ("budget degradations", s.degradations); ("codec read errors", s.read_errors) ];
  Buffer.add_string buf (Table.render t);
  if s.timeline <> [] then begin
    let t =
      Table.create ~title:"Throughput timeline (events per journal second)"
        ~columns:[ ("Second", Table.Right); ("Events", Table.Right) ]
        ()
    in
    List.iter
      (fun (sec, n) -> Table.add_row t [ string_of_int sec; string_of_int n ])
      s.timeline;
    Buffer.add_string buf (Table.render t)
  end;
  Buffer.contents buf
