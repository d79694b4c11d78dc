(* Spans the benchmark records around its own calls into the library's
   public functions, folded into a per-phase layer ledger.

   A span's self time is its duration minus the part its child spans
   cover; a layer's time in a phase is the sum of its spans' self times.
   Observer calls (one per simulated event, millions per pass) are too
   many to keep one by one, so each enclosing span keeps one aggregate
   per layer — call count and total time — and writes that out as a
   single span record. Spans stay in memory until [write] at exit.

   Timed phases always measure their wall time. Spans are only taken in
   traced phases; in the others [span] runs its argument and [observer]
   returns the observer it was given. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let layer_names =
  [|
    "sim";
    "recorder.observe";
    "recorder.replay";
    "codec.encode";
    "codec.decode";
    "analyzer.create";
    "analyzer.access";
    "analyzer.epoch";
    "analyzer.sync";
    "export.digest";
    "export.json";
    "serve.admit";
    "serve.stream";
    "serve.tail";
  |]

let n_layers = Array.length layer_names

let layer name =
  let rec find i =
    if i = n_layers then invalid_arg ("Ledger.layer: " ^ name)
    else if layer_names.(i) = name then i
    else find (i + 1)
  in
  find 0

type frame = {
  id : int;
  name : string;
  layer : int;  (** -1 for a phase root: its self time is benchmark glue. *)
  t0 : int;
  mutable child_ns : int;
  agg_count : int array;
  agg_ns : int array;
}

type span = {
  s_id : int;
  s_parent : int;
  s_name : string;
  s_layer : string;
  s_pass : int;
  s_phase : string;
  s_t0 : int;
  s_dur : int;
  s_count : int;
}

type t = {
  mutable traced : bool;
  mutable pass : int;
  mutable phase_name : string;
  mutable stack : frame list;
  self_ns : int array;
  mutable next_id : int;
  mutable spans : span list;
  origin : int;
}

let create () =
  {
    traced = false;
    pass = 0;
    phase_name = "";
    stack = [];
    self_ns = Array.make n_layers 0;
    next_id = 1;
    spans = [];
    origin = now_ns ();
  }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let push t ~name ~layer =
  let f =
    {
      id = fresh_id t;
      name;
      layer;
      t0 = now_ns ();
      child_ns = 0;
      agg_count = Array.make n_layers 0;
      agg_ns = Array.make n_layers 0;
    }
  in
  t.stack <- f :: t.stack;
  f

let keep t ~id ~parent ~name ~layer ~t0 ~dur ~count =
  t.spans <-
    {
      s_id = id;
      s_parent = parent;
      s_name = name;
      s_layer = layer;
      s_pass = t.pass;
      s_phase = t.phase_name;
      s_t0 = t0 - t.origin;
      s_dur = dur;
      s_count = count;
    }
    :: t.spans

(* Close the top frame: credit its self time to its layer, its duration
   to its parent's children, and keep it plus its per-event aggregates. *)
let pop t f =
  let t1 = now_ns () in
  let dur = t1 - f.t0 in
  t.stack <- List.tl t.stack;
  let parent = match t.stack with p :: _ -> p.id | [] -> 0 in
  (match t.stack with p :: _ -> p.child_ns <- p.child_ns + dur | [] -> ());
  if f.layer >= 0 then t.self_ns.(f.layer) <- t.self_ns.(f.layer) + (dur - f.child_ns);
  let layer = if f.layer >= 0 then layer_names.(f.layer) else "phase" in
  keep t ~id:f.id ~parent ~name:f.name ~layer ~t0:f.t0 ~dur ~count:1;
  Array.iteri
    (fun l n ->
      if n > 0 then
        keep t ~id:(fresh_id t) ~parent:f.id ~name:(layer_names.(l) ^ " (per event)")
          ~layer:layer_names.(l) ~t0:f.t0 ~dur:f.agg_ns.(l) ~count:n)
    f.agg_count;
  dur

let span t layer name f =
  if not t.traced then f ()
  else begin
    let fr = push t ~name ~layer in
    match f () with
    | v ->
        ignore (pop t fr);
        v
    | exception e ->
        ignore (pop t fr);
        raise e
  end

let observer t layer_of obs =
  if not t.traced then obs
  else fun e ->
    let t0 = now_ns () in
    let cost = obs e in
    let dur = now_ns () - t0 in
    let l = layer_of e in
    t.self_ns.(l) <- t.self_ns.(l) + dur;
    (match t.stack with
    | p :: _ ->
        p.child_ns <- p.child_ns + dur;
        p.agg_count.(l) <- p.agg_count.(l) + 1;
        p.agg_ns.(l) <- p.agg_ns.(l) + dur
    | [] -> ());
    cost

(* A span measured outside [span], e.g. the steps of a serve session the
   client timed itself. [in_ledger] credits it to its layer; spans that
   overlap others in time (the concurrent small sessions) are kept for
   the trace file only. *)
let record t layer name ~t0 ~t1 ~in_ledger =
  if t.traced then begin
    let dur = t1 - t0 in
    let parent = match t.stack with p :: _ -> p.id | [] -> 0 in
    if in_ledger then begin
      t.self_ns.(layer) <- t.self_ns.(layer) + dur;
      match t.stack with p :: _ -> p.child_ns <- p.child_ns + dur | [] -> ()
    end;
    keep t ~id:(fresh_id t) ~parent ~name ~layer:layer_names.(layer) ~t0 ~dur ~count:1
  end

type phase = {
  wall_s : float;
  self_s : float array;  (** Per layer, indexed like [layer_names]; zeros when untraced. *)
}

let phase t ~pass ~traced name f =
  t.traced <- traced;
  t.pass <- pass;
  t.phase_name <- name;
  Array.fill t.self_ns 0 n_layers 0;
  let t0 = now_ns () in
  let fr = if traced then Some (push t ~name ~layer:(-1)) else None in
  let v = f () in
  let wall_ns = match fr with Some fr -> pop t fr | None -> now_ns () - t0 in
  t.traced <- false;
  (v, { wall_s = float_of_int wall_ns /. 1e9; self_s = Array.map (fun n -> float_of_int n /. 1e9) t.self_ns })

let coverage p = Array.fold_left ( +. ) 0.0 p.self_s /. p.wall_s

(* Chrome trace-event JSON (loads in Perfetto / chrome://tracing): one
   complete event per span, lane = pass, parent id and call count in
   args. *)
let write t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\":[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"phase\":%s,\"count\":%d}}\n"
            (if i = 0 then "" else ",")
            (Rma_util.Json.escape_string s.s_name)
            (Rma_util.Json.escape_string s.s_layer)
            s.s_pass
            (float_of_int s.s_t0 /. 1e3)
            (float_of_int s.s_dur /. 1e3)
            s.s_id s.s_parent
            (Rma_util.Json.escape_string s.s_phase)
            s.s_count)
        (List.rev t.spans);
      output_string oc "]}\n")
