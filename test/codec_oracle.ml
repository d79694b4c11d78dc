(* A frozen copy of the Codec format-2 line encoder, decoder and stream
   writer as they were before the codec's hot paths were rewritten to
   work in place: every field rendered to its own string and joined,
   every line split on tabs and parsed field by field. It is a test oracle only — the
   properties in [test_trace.ml] hold [Rma_trace.Codec] to the same
   bytes, the same decoded events and the same error strings. Do not
   edit it to follow the library. One change was made to the format's
   contract since: an error names at most 64 bytes of its input, then
   "…" and the input's byte length ([clip] and [quote] below). Its
   stream writer lost the fault branches when the library's writer lost
   its fault plan; [corrupt_line] stays as the tests' damage mutator. *)

open Rma_access
module Event = Mpi_sim.Event

let clip s =
  if String.length s <= 64 then s
  else Printf.sprintf "%s… (%d bytes)" (String.sub s 0 64) (String.length s)

let quote s =
  if String.length s <= 64 then Printf.sprintf "%S" s
  else Printf.sprintf "%S… (%d bytes)" (String.sub s 0 64) (String.length s)

(* [Access.is_default_thread] as it was defined alongside this codec. *)
let is_default_thread (a : Access.t) =
  a.Access.thread = Access.default_thread ~issuer:a.Access.issuer

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '%' -> Buffer.add_string buf "%25"
      | '\t' -> Buffer.add_string buf "%09"
      | '\n' -> Buffer.add_string buf "%0A"
      | '\r' -> Buffer.add_string buf "%0D"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let unescape s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i >= n then ()
    else if s.[i] = '%' && i + 2 < n then begin
      let hex = String.sub s (i + 1) 2 in
      match int_of_string_opt ("0x" ^ hex) with
      | Some code ->
          Buffer.add_char buf (Char.chr code);
          go (i + 3)
      | None ->
          Buffer.add_char buf s.[i];
          go (i + 1)
    end
    else begin
      Buffer.add_char buf s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents buf

let bool_str = function true -> "1" | false -> "0"

let kind_str = function
  | Access_kind.Local_read -> "LR"
  | Access_kind.Local_write -> "LW"
  | Access_kind.Rma_read -> "RR"
  | Access_kind.Rma_write -> "RW"
  | Access_kind.Rma_accumulate -> "RA"

let kind_of_str = function
  | "LR" -> Ok Access_kind.Local_read
  | "LW" -> Ok Access_kind.Local_write
  | "RR" -> Ok Access_kind.Rma_read
  | "RW" -> Ok Access_kind.Rma_write
  | "RA" -> Ok Access_kind.Rma_accumulate
  | other -> Error ("unknown access kind " ^ quote other)

let opt_int = function None -> "-" | Some i -> string_of_int i

let opt_int_of_str = function
  | "-" -> Ok None
  | s -> (
      match int_of_string_opt s with Some i -> Ok (Some i) | None -> Error ("bad int " ^ clip s))

let encode_event event =
  let join = String.concat "\t" in
  match event with
  | Event.Access a ->
      let acc = a.Event.access in
      join
        ([
           "A";
           string_of_int a.Event.space;
           kind_str acc.Access.kind;
           string_of_int (Interval.lo acc.Access.interval);
           string_of_int (Interval.hi acc.Access.interval);
           string_of_int acc.Access.issuer;
           string_of_int acc.Access.seq;
           opt_int a.Event.win;
           bool_str a.Event.relevant;
           bool_str a.Event.on_stack;
           Printf.sprintf "%.9f" a.Event.sim_time;
           escape acc.Access.debug.Debug_info.file;
           string_of_int acc.Access.debug.Debug_info.line;
           escape acc.Access.debug.Debug_info.operation;
         ]
        @
        (* Trailing thread fields, present only for a non-default issuing
           thread: tid, own stamp, and the thread-view as comma-separated
           component:value pairs. Single-thread traces keep the 14-field
           arity and stay byte-identical. *)
        if is_default_thread acc then []
        else
          [
            string_of_int acc.Access.thread.Access.tid;
            string_of_int acc.Access.thread.Access.tstamp;
            String.concat ","
              (List.map
                 (fun (c, v) -> Printf.sprintf "%d:%d" c v)
                 acc.Access.thread.Access.tview);
          ])
  | Event.Collective { kind; rank; sim_time } ->
      join
        [
          "C";
          (match kind with
          | Event.Barrier -> "barrier"
          | Event.Allreduce -> "allreduce"
          | Event.Fence -> "fence");
          string_of_int rank;
          Printf.sprintf "%.9f" sim_time;
        ]
  | Event.Win_created { win; rank; base; size; sim_time } ->
      join
        [ "W"; string_of_int win; string_of_int rank; string_of_int base; string_of_int size;
          Printf.sprintf "%.9f" sim_time ]
  | Event.Win_freed { win; rank; sim_time } ->
      join [ "X"; string_of_int win; string_of_int rank; Printf.sprintf "%.9f" sim_time ]
  | Event.Epoch_opened { win; rank; sim_time } ->
      join [ "O"; string_of_int win; string_of_int rank; Printf.sprintf "%.9f" sim_time ]
  | Event.Epoch_closed { win; rank; sim_time } ->
      join [ "E"; string_of_int win; string_of_int rank; Printf.sprintf "%.9f" sim_time ]
  | Event.Flushed { win; rank; target; sim_time } ->
      join
        [ "L"; string_of_int win; string_of_int rank; opt_int target; Printf.sprintf "%.9f" sim_time ]
  | Event.Finished { rank; sim_time } ->
      join [ "Z"; string_of_int rank; Printf.sprintf "%.9f" sim_time ]

let ( let* ) r f = Result.bind r f

let int_field s =
  match int_of_string_opt s with Some i -> Ok i | None -> Error ("bad int " ^ clip s)

let float_field s =
  match float_of_string_opt s with Some f -> Ok f | None -> Error ("bad float " ^ clip s)

let bool_field = function
  | "1" -> Ok true
  | "0" -> Ok false
  | s -> Error ("bad bool " ^ clip s)

let tview_field s =
  let pair p =
    match String.split_on_char ':' p with
    | [ c; v ] -> (
        match (int_of_string_opt c, int_of_string_opt v) with
        | Some c, Some v -> Ok (c, v)
        | _ -> Error ("bad thread-view pair " ^ clip p))
    | _ -> Error ("bad thread-view pair " ^ clip p)
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest ->
        let* cv = pair p in
        go (cv :: acc) rest
  in
  if s = "" then Ok [] else go [] (String.split_on_char ',' s)

let decode_event_exn line =
  match String.split_on_char '\t' line with
  | "A" :: space :: kind :: lo :: hi :: issuer :: seq :: win :: relevant :: on_stack :: time
    :: file :: lnum :: op :: thread_fields ->
      let* space = int_field space in
      let* kind = kind_of_str kind in
      let* lo = int_field lo in
      let* hi = int_field hi in
      let* issuer = int_field issuer in
      let* seq = int_field seq in
      let* win = opt_int_of_str win in
      let* relevant = bool_field relevant in
      let* on_stack = bool_field on_stack in
      let* sim_time = float_field time in
      let* line_number = int_field lnum in
      if lo > hi then Error (Printf.sprintf "inverted interval [%s...%s]" (string_of_int lo) (string_of_int hi))
      else if issuer < 0 then Error (Printf.sprintf "negative issuer %d" issuer)
      else begin
        let debug =
          Debug_info.make ~file:(unescape file) ~line:line_number ~operation:(unescape op)
        in
        let* thread =
          match thread_fields with
          | [] -> Ok (Access.default_thread ~issuer)
          | [ tid; tstamp; tview ] ->
              let* tid = int_field tid in
              let* tstamp = int_field tstamp in
              let* tview = tview_field tview in
              Ok { Access.tid; tstamp; tview }
          | _ -> Error "malformed thread fields on access record"
        in
        let access =
          Access.make_threaded ~thread ~interval:(Interval.make ~lo ~hi) ~kind ~issuer ~seq ~debug
        in
        Ok (Event.Access { Event.space; access; win; relevant; on_stack; sim_time })
      end
  | [ "C"; kind; rank; time ] ->
      let* kind =
        match kind with
        | "barrier" -> Ok Event.Barrier
        | "allreduce" -> Ok Event.Allreduce
        | "fence" -> Ok Event.Fence
        | other -> Error ("unknown collective " ^ clip other)
      in
      let* rank = int_field rank in
      let* sim_time = float_field time in
      Ok (Event.Collective { kind; rank; sim_time })
  | [ "W"; win; rank; base; size; time ] ->
      let* win = int_field win in
      let* rank = int_field rank in
      let* base = int_field base in
      let* size = int_field size in
      let* sim_time = float_field time in
      Ok (Event.Win_created { win; rank; base; size; sim_time })
  | [ "X"; win; rank; time ] ->
      let* win = int_field win in
      let* rank = int_field rank in
      let* sim_time = float_field time in
      Ok (Event.Win_freed { win; rank; sim_time })
  | [ "O"; win; rank; time ] ->
      let* win = int_field win in
      let* rank = int_field rank in
      let* sim_time = float_field time in
      Ok (Event.Epoch_opened { win; rank; sim_time })
  | [ "E"; win; rank; time ] ->
      let* win = int_field win in
      let* rank = int_field rank in
      let* sim_time = float_field time in
      Ok (Event.Epoch_closed { win; rank; sim_time })
  | [ "L"; win; rank; target; time ] ->
      let* win = int_field win in
      let* rank = int_field rank in
      let* target = opt_int_of_str target in
      let* sim_time = float_field time in
      Ok (Event.Flushed { win; rank; target; sim_time })
  | [ "Z"; rank; time ] ->
      let* rank = int_field rank in
      let* sim_time = float_field time in
      Ok (Event.Finished { rank; sim_time })
  | _ -> Error ("malformed trace line " ^ quote line)

(* The grammar above is already total over well-formed OCaml strings,
   but "never raises" is a contract the fuzz suite enforces against
   arbitrary bytes — the catch-all keeps it robust against any future
   field parser that throws. *)
let decode_event line =
  match decode_event_exn line with
  | r -> r
  | exception e -> Error (Printf.sprintf "decode failure: %s" (Printexc.to_string e))

(* Mutate one encoded line the way a flaky link or disk would: flip the
   low bit of the middle byte. Tab-separated printable bytes stay in
   the printable range, so the corruption never forges a line break —
   it yields a malformed field (or, rarely, a silently different valid
   one, which is exactly why framed traces still deserve checksums
   upstream). *)
let corrupt_line line =
  if line = "" then line
  else begin
    let b = Bytes.of_string line in
    let i = Bytes.length b / 2 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
    Bytes.to_string b
  end

let write_all oc events =
  output_string oc Rma_trace.Codec.header;
  output_char oc '\n';
  List.iter
    (fun e ->
      output_string oc (encode_event e);
      output_char oc '\n')
    events;
  output_string oc (Rma_trace.Codec.footer (List.length events));
  output_char oc '\n'
