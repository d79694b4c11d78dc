(* Characters in the bar of the largest value. *)
let width = 50

let bar max_value value =
  if max_value <= 0.0 then ""
  else begin
    let n = int_of_float (Float.round (value /. max_value *. float_of_int width)) in
    String.make (max 0 (min width n)) '#'
  end

let render_rows buf ~unit_label ~label_width ~max_value rows =
  List.iter
    (fun (label, value) ->
      Buffer.add_string buf
        (Printf.sprintf "  %-*s |%-*s %.3f%s\n" label_width label width
           (bar max_value value) value unit_label))
    rows

let bar_chart ?(unit_label = "") ~title rows =
  let buf = Buffer.create 512 in
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  let max_value = List.fold_left (fun acc (_, v) -> Float.max acc v) 0.0 rows in
  let label_width = List.fold_left (fun acc (l, _) -> max acc (String.length l)) 0 rows in
  render_rows buf ~unit_label ~label_width ~max_value rows;
  Buffer.contents buf

let grouped_bar_chart ?(unit_label = "") ~title ~group_label groups =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  let max_value =
    List.fold_left
      (fun acc (_, rows) -> List.fold_left (fun acc (_, v) -> Float.max acc v) acc rows)
      0.0 groups
  in
  let label_width =
    List.fold_left
      (fun acc (_, rows) ->
        List.fold_left (fun acc (l, _) -> max acc (String.length l)) acc rows)
      0 groups
  in
  List.iter
    (fun (group, rows) ->
      Buffer.add_string buf (Printf.sprintf "%s %s\n" group_label group);
      render_rows buf ~unit_label ~label_width ~max_value rows)
    groups;
  Buffer.contents buf
