module Timer = Rma_util.Timer

type counter = { c_name : string; c_help : string; mutable c_value : int }
type gauge = { g_name : string; g_help : string; mutable g_value : float }

type span = {
  sp_id : int;
  sp_name : string;
  sp_cat : string;
  sp_pid : int;
  sp_tid : int;
  sp_t0 : float;
  mutable sp_t1 : float;
  mutable sp_args : (string * string) list;
}

let enabled = ref false
let trace_epoch = ref 0.0

(* The registry tables are written on creation only (find-or-register,
   normally at module init) but may be read from another domain (a
   serve daemon started on a background domain renders /metrics there);
   the mutex covers exactly those two sides. Metric
   mutation (c_value, bucket counts) stays lock-free: OCaml int and
   pointer stores are atomic, so a concurrent reader sees a slightly
   stale value, never a torn one. *)
let registry_mu = Mutex.create ()

let counters : (string, counter) Hashtbl.t = Hashtbl.create 32
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 32
let histograms : (string, Histogram.t) Hashtbl.t = Hashtbl.create 32
let categories : (string, Timer.accumulator) Hashtbl.t = Hashtbl.create 8

let spans_rev : span list ref = ref []
let span_count = ref 0
let span_cap = ref 1_000_000
let next_id = ref 0
let sim_pid_current = ref 2
let sim_runs = ref 0

(* Span ids; 0 is reserved for "none". *)
let fresh_id () =
  next_id := !next_id + 1;
  !next_id

let wall_pid = 1
let sim_pid () = !sim_pid_current

let begin_sim_run () =
  if !enabled then begin
    sim_runs := !sim_runs + 1;
    (* Pid 2 for the first run so single-run traces stay tidy. *)
    sim_pid_current := 1 + !sim_runs
  end

let enable () =
  if not !enabled then begin
    enabled := true;
    if !trace_epoch = 0.0 then trace_epoch := Timer.now ()
  end

let disable () = enabled := false
let is_enabled () = !enabled
let rel_time t = t -. !trace_epoch

let reset () =
  Hashtbl.iter (fun _ c -> c.c_value <- 0) counters;
  Hashtbl.iter (fun _ g -> g.g_value <- 0.0) gauges;
  Hashtbl.iter (fun _ h -> Histogram.reset h) histograms;
  Hashtbl.iter (fun _ acc -> Timer.reset acc) categories;
  spans_rev := [];
  span_count := 0;
  next_id := 0;
  sim_pid_current := 2;
  sim_runs := 0;
  trace_epoch := Timer.now ()

let registered find create =
  Mutex.lock registry_mu;
  let v = match find () with Some v -> v | None -> create () in
  Mutex.unlock registry_mu;
  v

let counter ?(help = "") name =
  registered
    (fun () -> Hashtbl.find_opt counters name)
    (fun () ->
      let c = { c_name = name; c_help = help; c_value = 0 } in
      Hashtbl.replace counters name c;
      c)

let incr c = if !enabled then c.c_value <- c.c_value + 1
let add c n = if !enabled then c.c_value <- c.c_value + n

let gauge ?(help = "") name =
  registered
    (fun () -> Hashtbl.find_opt gauges name)
    (fun () ->
      let g = { g_name = name; g_help = help; g_value = 0.0 } in
      Hashtbl.replace gauges name g;
      g)

let set_gauge g v = if !enabled then g.g_value <- v

let histogram ?(help = "") ?(unit_ = "s") name =
  registered
    (fun () -> Hashtbl.find_opt histograms name)
    (fun () ->
      let h = Histogram.create ~help ~unit_ name in
      Hashtbl.replace histograms name h;
      h)

let observe h v = if !enabled then Histogram.observe h v
let observe_int h n = if !enabled then Histogram.observe h (float_of_int n)

let set_span_cap n = span_cap := max 0 n

let record_span sp =
  if !span_count < !span_cap then begin
    spans_rev := sp :: !spans_rev;
    span_count := !span_count + 1
  end

let start_span ?(cat = "span") ?(args = []) ~pid ~tid ?at name =
  if (not !enabled) || !span_count >= !span_cap then None
  else begin
    let t0 = match at with Some t -> t | None -> rel_time (Timer.now ()) in
    Some { sp_id = fresh_id (); sp_name = name; sp_cat = cat; sp_pid = pid; sp_tid = tid;
           sp_t0 = t0; sp_t1 = Float.nan; sp_args = args }
  end

let finish_span ?at ?(args = []) = function
  | None -> ()
  | Some sp ->
      sp.sp_t1 <- (match at with Some t -> t | None -> rel_time (Timer.now ()));
      if args <> [] then sp.sp_args <- sp.sp_args @ args;
      record_span sp

let emit_span ?(cat = "span") ?(args = []) ~pid ~tid ~t0 ~t1 name =
  if !enabled then
    record_span { sp_id = fresh_id (); sp_name = name; sp_cat = cat; sp_pid = pid; sp_tid = tid;
                  sp_t0 = t0; sp_t1 = t1; sp_args = args }

let span_id = function None -> 0 | Some sp -> sp.sp_id

let category_acc cat =
  match Hashtbl.find_opt categories cat with
  | Some acc -> acc
  | None ->
      let acc = Timer.accumulator () in
      Hashtbl.replace categories cat acc;
      acc

let time_span ?(cat = "phase") ?(args = []) ?(pid = wall_pid) ?(tid = 0) name f =
  let t0 = Timer.now () in
  let finish () =
    let t1 = Timer.now () in
    if !enabled then begin
      Timer.add (category_acc cat) (t1 -. t0);
      record_span { sp_id = fresh_id (); sp_name = name; sp_cat = cat; sp_pid = pid; sp_tid = tid;
                    sp_t0 = rel_time t0; sp_t1 = rel_time t1; sp_args = args }
    end;
    t1 -. t0
  in
  match f () with
  | result -> (result, finish ())
  | exception e ->
      ignore (finish ());
      raise e

let snapshot fold =
  Mutex.lock registry_mu;
  let l = fold () in
  Mutex.unlock registry_mu;
  l

let all_counters () =
  snapshot (fun () -> Hashtbl.fold (fun _ c acc -> c :: acc) counters [])
  |> List.sort (fun a b -> String.compare a.c_name b.c_name)

let all_gauges () =
  snapshot (fun () -> Hashtbl.fold (fun _ g acc -> g :: acc) gauges [])
  |> List.sort (fun a b -> String.compare a.g_name b.g_name)

let all_histograms () =
  snapshot (fun () -> Hashtbl.fold (fun _ h acc -> h :: acc) histograms [])
  |> List.sort (fun a b -> String.compare (Histogram.name a) (Histogram.name b))

let all_spans () =
  List.sort
    (fun a b -> compare (a.sp_pid, a.sp_tid, a.sp_t0) (b.sp_pid, b.sp_tid, b.sp_t0))
    !spans_rev

let all_categories () =
  Hashtbl.fold (fun cat acc l -> (cat, Timer.elapsed acc) :: l) categories []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
