let sanitize name =
  let b = Bytes.of_string name in
  Bytes.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> ()
      | _ -> Bytes.set b i '_')
    b;
  "rma_" ^ Bytes.to_string b

(* Exposition-format escaping: HELP text escapes backslash and newline;
   label values additionally escape the double quote. *)
let escape ~quote s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '"' when quote -> Buffer.add_string b "\\\""
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let escape_help = escape ~quote:false
let escape_label_value = escape ~quote:true

let num v = if Float.is_finite v then Printf.sprintf "%.9g" v else "0"

let to_text ?(filter = fun _ -> true) () =
  let b = Buffer.create 4096 in
  let header name help kind =
    if help <> "" then
      Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name (escape_help help));
    Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name kind)
  in
  if filter "run_info" then begin
    header "rma_run_info" "journal run id correlating this process's events" "gauge";
    Buffer.add_string b
      (Printf.sprintf "rma_run_info{run_id=\"%s\"} 1\n" (escape_label_value (Events.run_id ())))
  end;
  List.iter
    (fun (c : Obs.counter) ->
      if filter c.Obs.c_name then begin
        let name = sanitize c.Obs.c_name in
        header name c.Obs.c_help "counter";
        Buffer.add_string b (Printf.sprintf "%s %d\n" name c.Obs.c_value)
      end)
    (Obs.all_counters ());
  List.iter
    (fun (g : Obs.gauge) ->
      if filter g.Obs.g_name then begin
        let name = sanitize g.Obs.g_name in
        header name g.Obs.g_help "gauge";
        Buffer.add_string b (Printf.sprintf "%s %s\n" name (num g.Obs.g_value))
      end)
    (Obs.all_gauges ());
  List.iter
    (fun h ->
      if filter (Histogram.name h) then begin
        let name = sanitize (Histogram.name h) in
        header name (Histogram.help h) "summary";
        List.iter
          (fun q ->
            Buffer.add_string b
              (Printf.sprintf "%s{quantile=\"%g\"} %s\n" name q (num (Histogram.quantile h q))))
          [ 0.5; 0.95; 0.99 ];
        Buffer.add_string b (Printf.sprintf "%s_sum %s\n" name (num (Histogram.sum h)));
        Buffer.add_string b (Printf.sprintf "%s_count %d\n" name (Histogram.count h))
      end)
    (Obs.all_histograms ());
  Buffer.contents b

let write ~path () =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_text ()))
