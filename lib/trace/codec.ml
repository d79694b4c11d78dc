open Rma_access
module Event = Mpi_sim.Event
module Lines = Rma_util.Lines

let header = "rma-trace 2"
let footer_prefix = "rma-trace-end"
let footer n = Printf.sprintf "%s %d" footer_prefix n

type error = { at_line : int; reason : string }

let error_to_string e = Printf.sprintf "line %d: %s" e.at_line e.reason

let needs_escape c = c = '%' || c = '\t' || c = '\n' || c = '\r'

(* A string field as the format writes it: copied as is unless it holds
   one of the four bytes that would break the line or its escaping. *)
let add_escaped buf s =
  if not (String.exists needs_escape s) then Buffer.add_string buf s
  else
    String.iter
      (fun c ->
        match c with
        | '%' -> Buffer.add_string buf "%25"
        | '\t' -> Buffer.add_string buf "%09"
        | '\n' -> Buffer.add_string buf "%0A"
        | '\r' -> Buffer.add_string buf "%0D"
        | c -> Buffer.add_char buf c)
      s

let unescape s =
  let n = String.length s in
  let buf = Buffer.create n in
  let rec go i =
    if i < n then
      let code =
        if s.[i] = '%' && i + 2 < n then int_of_string_opt ("0x" ^ String.sub s (i + 1) 2) else None
      in
      match code with
      | Some code ->
          Buffer.add_char buf (Char.chr code);
          go (i + 3)
      | None ->
          Buffer.add_char buf s.[i];
          go (i + 1)
  in
  go 0;
  Buffer.contents buf

(* --- Encoding: each field appended to one line buffer --- *)

let kind_str = function
  | Access_kind.Local_read -> "LR"
  | Access_kind.Local_write -> "LW"
  | Access_kind.Rma_read -> "RR"
  | Access_kind.Rma_write -> "RW"
  | Access_kind.Rma_accumulate -> "RA"

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

(* [string_of_int]'s bytes; [min_int] is the one value whose magnitude
   is not an int. *)
let add_int buf n =
  if n >= 0 then add_digits buf n
  else if n = min_int then Buffer.add_string buf (string_of_int n)
  else begin
    Buffer.add_char buf '-';
    add_digits buf (-n)
  end

(* The C primitive [Printf.sprintf "%.9f"] ends in: [time_f]'s fallback
   outside its exact range. *)
external format_float : string -> float -> string = "caml_format_float"

(* "00", "01", ..., "99": two digits per 16-bit store. *)
let digit_pairs =
  String.init 200 (fun i -> Char.chr (48 + if i land 1 = 0 then i / 20 else i / 2 mod 10))

let add_pair buf n = Buffer.add_uint16_ne buf (String.get_uint16_ne digit_pairs (2 * n))

(* [n < 10^9] as exactly nine digits, zero-padded. *)
let add_nine buf n =
  Buffer.add_char buf (Char.unsafe_chr (48 + (n / 100_000_000)));
  let n = n mod 100_000_000 in
  add_pair buf (n / 1_000_000);
  add_pair buf (n / 10_000 mod 100);
  add_pair buf (n / 100 mod 100);
  add_pair buf (n mod 100)

(* [Printf.sprintf "%.9f" t]'s bytes. Below 1e6 they come from the
   integer [n] nearest |t|·10^9, ties to even as [printf] rounds:
   [p +. err] is that product exactly ([err] is the fma residual), and
   [p < 2^50] makes [m] and [frac] exact and [|err| <= 1/16], so a
   [frac] under 1/4 rounds down and otherwise the exact sign of
   [frac -. 0.5 +. err] decides. The sign bit keeps [-0.] and tiny
   negatives as [-0.000000000]. *)
let time_f buf t =
  Buffer.add_char buf '\t';
  let a = Float.abs t in
  if a < 1e6 then begin
    let p = a *. 1e9 in
    let err = Float.fma a 1e9 (-.p) in
    let m = int_of_float p in
    let frac = p -. float_of_int m in
    let n =
      if frac < 0.25 then m
      else
        let d = frac -. 0.5 +. err in
        if d > 0.0 then m + 1 else if d < 0.0 then m else m + (m land 1)
    in
    if Float.sign_bit t then Buffer.add_char buf '-';
    add_digits buf (n / 1_000_000_000);
    Buffer.add_char buf '.';
    add_nine buf (n mod 1_000_000_000)
  end
  else Buffer.add_string buf (format_float "%.9f" t)

let int_f buf n =
  Buffer.add_char buf '\t';
  add_int buf n

let opt_int_f buf = function
  | None -> Buffer.add_string buf "\t-"
  | Some n -> int_f buf n

let bool_f buf b = Buffer.add_string buf (if b then "\t1" else "\t0")

let string_f buf s =
  Buffer.add_char buf '\t';
  add_escaped buf s

let win_rank_time buf tag win rank sim_time =
  Buffer.add_char buf tag;
  int_f buf win;
  int_f buf rank;
  time_f buf sim_time

let encode_into buf event =
  match event with
  | Event.Access a ->
      let acc = a.Event.access in
      Buffer.add_char buf 'A';
      int_f buf a.Event.space;
      Buffer.add_char buf '\t';
      Buffer.add_string buf (kind_str acc.Access.kind);
      int_f buf (Interval.lo acc.Access.interval);
      int_f buf (Interval.hi acc.Access.interval);
      int_f buf acc.Access.issuer;
      int_f buf acc.Access.seq;
      opt_int_f buf a.Event.win;
      bool_f buf a.Event.relevant;
      bool_f buf a.Event.on_stack;
      time_f buf a.Event.sim_time;
      string_f buf acc.Access.debug.Debug_info.file;
      int_f buf acc.Access.debug.Debug_info.line;
      string_f buf acc.Access.debug.Debug_info.operation;
      (* Trailing thread fields, present only for a non-default issuing
         thread: tid, own stamp, and the thread-view as comma-separated
         component:value pairs. Single-thread traces keep the 14-field
         arity and stay byte-identical. *)
      if not (Access.is_default_thread acc) then begin
        let th = acc.Access.thread in
        int_f buf th.Access.tid;
        int_f buf th.Access.tstamp;
        Buffer.add_char buf '\t';
        List.iteri
          (fun i (c, v) ->
            if i > 0 then Buffer.add_char buf ',';
            add_int buf c;
            Buffer.add_char buf ':';
            add_int buf v)
          th.Access.tview
      end
  | Event.Collective { kind; rank; sim_time } ->
      Buffer.add_string buf
        (match kind with
        | Event.Barrier -> "C\tbarrier"
        | Event.Allreduce -> "C\tallreduce"
        | Event.Fence -> "C\tfence");
      int_f buf rank;
      time_f buf sim_time
  | Event.Win_created { win; rank; base; size; sim_time } ->
      Buffer.add_char buf 'W';
      int_f buf win;
      int_f buf rank;
      int_f buf base;
      int_f buf size;
      time_f buf sim_time
  | Event.Win_freed { win; rank; sim_time } -> win_rank_time buf 'X' win rank sim_time
  | Event.Epoch_opened { win; rank; sim_time } -> win_rank_time buf 'O' win rank sim_time
  | Event.Epoch_closed { win; rank; sim_time } -> win_rank_time buf 'E' win rank sim_time
  | Event.Flushed { win; rank; target; sim_time } ->
      Buffer.add_char buf 'L';
      int_f buf win;
      int_f buf rank;
      opt_int_f buf target;
      time_f buf sim_time
  | Event.Finished { rank; sim_time } ->
      Buffer.add_char buf 'Z';
      int_f buf rank;
      time_f buf sim_time

let encode_event event =
  let buf = Buffer.create 96 in
  encode_into buf event;
  Buffer.contents buf

(* --- Decoding: one pass over the fields of a line ---

   Fields are read in place, left to right, from the slice
   [d.line.[d.start..d.stop-1]]: each reader parses its field up to its
   tab or the end of the line and checks that terminator, so each byte
   is looked at once. Text the encoder
   would not write goes to [int_of_string_opt] / [float_of_string_opt]
   on that field alone, so the accepted lines, decoded values and error
   strings are those of the split-and-parse grammar this replaced; its
   field count is taken only when a line fails ([resolve]). *)

exception Bad_field of string

(* One string field's previous raw text and its decoded value. *)
type memo = { mutable raw : string; mutable decoded : string }

type decoder = {
  mutable line : string;
      (* The line is [line.[start..stop-1]], often a view of a read
         buffer that the next read overwrites: every string kept from
         it is a [String.sub]. *)
  mutable start : int;
  mutable stop : int;
  mutable pos : int;
      (* The terminator of the field last read: a tab, or [stop] once
         the line's last field has been read. *)
  (* The previous line's file and operation fields: a stream repeats the
     same few source locations, so a match reuses the decoded string
     instead of allocating it again. Likewise the previous access's
     debug record, shared by the next access with the same location. *)
  file : memo;
  op : memo;
  mutable debug : Debug_info.t;
  mutable threads : Access.thread_info array;
      (* issuer -> its default thread, [no_thread] until first needed:
         every access of one issuer shares one record, so
         [Access.mergeable] compares threads by [==]. *)
}

let no_thread = { Access.tid = -1; tstamp = 0; tview = [] }

(* An issuer at or past this bound gets a fresh default thread per
   access, so hostile input cannot make a decoder hold a large table.
   [decode_access] rejects a negative issuer before it gets here. *)
let max_threads = 4096

let decoder () =
  {
    line = "";
    start = 0;
    stop = 0;
    pos = 0;
    file = { raw = ""; decoded = "" };
    op = { raw = ""; decoded = "" };
    debug = Debug_info.make ~file:"" ~line:0 ~operation:"";
    threads = [||];
  }

let default_thread d issuer =
  if issuer >= max_threads then Access.default_thread ~issuer
  else begin
    let n = Array.length d.threads in
    if issuer >= n then begin
      let grown = Array.make (Int.min max_threads (Int.max (2 * n) (issuer + 16))) no_thread in
      Array.blit d.threads 0 grown 0 n;
      d.threads <- grown
    end;
    let t = d.threads.(issuer) in
    if t != no_thread then t
    else begin
      let t = Access.default_thread ~issuer in
      d.threads.(issuer) <- t;
      t
    end
  end

(* The first tab of the line from [i] on, or its end. *)
let rec field_end d i =
  if i >= d.stop || String.unsafe_get d.line i = '\t' then i else field_end d (i + 1)

(* Whether a field may end at [i]: a tab or the end of the line. *)
let ends_at d i = i = d.stop || String.unsafe_get d.line i = '\t'

let rec count_tabs d i acc =
  if i >= d.stop then acc
  else count_tabs d (i + 1) (if String.unsafe_get d.line i = '\t' then acc + 1 else acc)

(* Where the next field starts. A line out of fields has the wrong
   field count, so [resolve] replaces this error with the arity one. *)
let field_start d =
  let a = d.pos + 1 in
  if a > d.stop then raise_notrace (Bad_field "");
  a

(* The whole of the field that starts at [a], any reader's slow path:
   [d.pos] moves to its terminator, searched for from [from]. *)
let rest_of_field d a from =
  let b = field_end d from in
  d.pos <- b;
  String.sub d.line a (b - a)

(* The value of the digits from [d.pos] on, with [d.pos] left at the
   first other byte. Past 18 digits the value wraps; callers discard it. *)
let rec digits d s acc =
  let i = d.pos in
  if i < d.stop then
    let c = String.unsafe_get s i in
    if c >= '0' && c <= '9' then begin
      d.pos <- i + 1;
      digits d s ((acc * 10) + (Char.code c - 48))
    end
    else acc
  else acc

let parse_int text =
  match int_of_string_opt text with
  | Some i -> i
  | None -> raise (Bad_field ("bad int " ^ Lines.clip text))

(* [-?[0-9]{1,18}]: at most 18 digits always fit an int, so the value
   is exact and the general parser would return the same. *)
let int_field d =
  let s = d.line in
  let a = field_start d in
  let neg = a < d.stop && String.unsafe_get s a = '-' in
  let d0 = if neg then a + 1 else a in
  d.pos <- d0;
  let v = digits d s 0 in
  let n = d.pos - d0 in
  if n >= 1 && n <= 18 && ends_at d d.pos then if neg then -v else v
  else parse_int (rest_of_field d a d.pos)

(* [-?[0-9]{1,6}\.[0-9]{9}], the shape [%.9f] writes with at most 15
   digits in all: the digits form an int [m] below 2^53, so
   [float_of_int m] and [1e9] are both exact and their quotient is the
   one correctly rounded double nearest m / 10^9 — exactly what
   [strtod] returns for the same text. The sign is applied last so
   [-0.000000000] stays [-0.]. *)
let float_field d =
  let s = d.line in
  let a = field_start d in
  let neg = a < d.stop && String.unsafe_get s a = '-' in
  let d0 = if neg then a + 1 else a in
  d.pos <- d0;
  let ip = digits d s 0 in
  let dot = d.pos in
  let fp =
    if dot > d0 && dot - d0 <= 6 && dot < d.stop && String.unsafe_get s dot = '.'
    then begin
      d.pos <- dot + 1;
      let fp = digits d s 0 in
      if d.pos - dot = 10 && ends_at d d.pos then fp else -1
    end
    else -1
  in
  if fp >= 0 then
    let t = float_of_int ((ip * 1_000_000_000) + fp) /. 1e9 in
    if neg then -.t else t
  else
    let text = rest_of_field d a d.pos in
    match float_of_string_opt text with
    | Some f -> f
    | None -> raise (Bad_field ("bad float " ^ Lines.clip text))

let rec slice_equal s a b t i =
  a >= b || (String.unsafe_get s a = String.unsafe_get t i && slice_equal s (a + 1) b t (i + 1))

(* Whether the field that starts at [a] is [w]; if so [d.pos] moves to
   its terminator. *)
let field_is d a w =
  let b = a + String.length w in
  let is = b <= d.stop && slice_equal d.line a b w 0 && ends_at d b in
  if is then d.pos <- b;
  is

(* [-], kind and bool fields are read by position; on a mismatch
   [rest_of_field] takes the field's text for the error. *)
let opt_int_field d =
  let s = d.line in
  let a = d.pos + 1 in
  if a < d.stop && String.unsafe_get s a = '-' && ends_at d (a + 1) then begin
    d.pos <- a + 1;
    None
  end
  else Some (int_field d)

let bool_field d =
  let s = d.line in
  let a = field_start d in
  d.pos <- a + 1;
  match if a < d.stop && ends_at d (a + 1) then String.unsafe_get s a else ' ' with
  | '1' -> true
  | '0' -> false
  | _ -> raise (Bad_field ("bad bool " ^ Lines.clip (rest_of_field d a a)))

let kind_field d =
  let s = d.line in
  let a = field_start d in
  let two = a + 2 <= d.stop && ends_at d (a + 2) in
  d.pos <- a + 2;
  match
    ( (if two then String.unsafe_get s a else ' '),
      if two then String.unsafe_get s (a + 1) else ' ' )
  with
  | 'L', 'R' -> Access_kind.Local_read
  | 'L', 'W' -> Access_kind.Local_write
  | 'R', 'R' -> Access_kind.Rma_read
  | 'R', 'W' -> Access_kind.Rma_write
  | 'R', 'A' -> Access_kind.Rma_accumulate
  | _ -> raise (Bad_field ("unknown access kind " ^ Lines.quote (rest_of_field d a a)))

(* A string field: the memo's decoded string when the field is the
   memo's raw text, else one [String.sub] (plus [unescape] if it holds
   a [%]) which the memo then keeps. *)
let string_field d m =
  let a = field_start d in
  if not (field_is d a m.raw) then begin
    let text = rest_of_field d a a in
    m.raw <- text;
    m.decoded <- (if String.contains text '%' then unescape text else text)
  end;
  m.decoded

let collective_field d =
  let a = field_start d in
  if field_is d a "barrier" then Event.Barrier
  else if field_is d a "allreduce" then Event.Allreduce
  else if field_is d a "fence" then Event.Fence
  else raise (Bad_field ("unknown collective " ^ Lines.clip (rest_of_field d a a)))

(* [c:v] pairs separated by commas, each component an int. *)
let tview_field d =
  let a = field_start d in
  let text = rest_of_field d a a in
  let pair p =
    match String.split_on_char ':' p with
    | [ c; v ] -> (
        match (parse_int c, parse_int v) with
        | cv -> cv
        | exception Bad_field _ -> raise (Bad_field ("bad thread-view pair " ^ Lines.clip p)))
    | _ -> raise (Bad_field ("bad thread-view pair " ^ Lines.clip p))
  in
  if text = "" then [] else List.map pair (String.split_on_char ',' text)

(* Whether the field last read was the line's last. *)
let at_end d = d.pos = d.stop

(* Tid, own stamp and thread-view, when they are the line's last three
   fields; any other trailing fields are one error, whatever they hold. *)
let thread_fields d =
  let malformed = Bad_field "malformed thread fields on access record" in
  match
    let tid = int_field d in
    let tstamp = int_field d in
    let tview = tview_field d in
    { Access.tid; tstamp; tview }
  with
  | t -> if at_end d then t else raise malformed
  | exception (Bad_field _ as e) -> raise (if count_tabs d d.start 1 = 17 then e else malformed)

let decode_access d =
  let space = int_field d in
  let kind = kind_field d in
  let lo = int_field d in
  let hi = int_field d in
  let issuer = int_field d in
  let seq = int_field d in
  let win = opt_int_field d in
  let relevant = bool_field d in
  let on_stack = bool_field d in
  let sim_time = float_field d in
  let file = string_field d d.file in
  let line_number = int_field d in
  let op = string_field d d.op in
  if lo > hi then
    raise
      (Bad_field
         (Printf.sprintf "inverted interval [%s...%s]" (string_of_int lo) (string_of_int hi)));
  if issuer < 0 then raise (Bad_field (Printf.sprintf "negative issuer %d" issuer));
  let prev = d.debug in
  let debug =
    if
      prev.Debug_info.file == file && prev.Debug_info.operation == op
      && prev.Debug_info.line = line_number
    then prev
    else Debug_info.make ~file ~line:line_number ~operation:op
  in
  d.debug <- debug;
  let thread = if at_end d then default_thread d issuer else thread_fields d in
  let access =
    Access.make_threaded ~thread ~interval:(Interval.make ~lo ~hi) ~kind ~issuer ~seq ~debug
  in
  Event.Access { Event.space; access; win; relevant; on_stack; sim_time }

let decode_tagged d tag =
  match tag with
  | 'A' -> decode_access d
  | 'C' ->
      let kind = collective_field d in
      let rank = int_field d in
      let sim_time = float_field d in
      Event.Collective { kind; rank; sim_time }
  | 'W' ->
      let win = int_field d in
      let rank = int_field d in
      let base = int_field d in
      let size = int_field d in
      let sim_time = float_field d in
      Event.Win_created { win; rank; base; size; sim_time }
  | 'X' | 'O' | 'E' -> (
      let win = int_field d in
      let rank = int_field d in
      let sim_time = float_field d in
      match tag with
      | 'X' -> Event.Win_freed { win; rank; sim_time }
      | 'O' -> Event.Epoch_opened { win; rank; sim_time }
      | _ -> Event.Epoch_closed { win; rank; sim_time })
  | 'L' ->
      let win = int_field d in
      let rank = int_field d in
      let target = opt_int_field d in
      let sim_time = float_field d in
      Event.Flushed { win; rank; target; sim_time }
  | 'Z' ->
      let rank = int_field d in
      let sim_time = float_field d in
      Event.Finished { rank; sim_time }
  | _ -> raise (Bad_field "")

(* The split grammar's precedence, applied once a line has failed: a
   field count wrong for the tag is the error, else the first field's
   error — an access line needs 14 fields or more, and [decode_access]
   has already ranked its own errors. *)
let resolve d tag reason =
  let n = count_tabs d d.start 1 in
  match tag with
  | ('C' | 'X' | 'O' | 'E') when n = 4 -> reason
  | 'W' when n = 6 -> reason
  | 'L' when n = 5 -> reason
  | 'Z' when n = 3 -> reason
  | 'A' when n >= 14 -> reason
  | _ -> "malformed trace line " ^ Lines.quote (String.sub d.line d.start (d.stop - d.start))

(* The grammar is total over well-formed OCaml strings, but "never
   raises" is a contract the fuzz suite enforces against arbitrary
   bytes — the catch-all keeps it robust against any field parser or
   constructor that throws. *)
let decode_line d s start stop =
  d.line <- s;
  d.start <- start;
  d.stop <- stop;
  d.pos <- start + 1;
  let tag = if stop > start && ends_at d (start + 1) then String.unsafe_get s start else ' ' in
  match decode_tagged d tag with
  | e when at_end d -> Ok e
  | _ -> Error (resolve d tag "")
  | exception Bad_field reason -> Error (resolve d tag reason)
  | exception e -> Error (Printf.sprintf "decode failure: %s" (Printexc.to_string e))

(* Lines accumulate in one buffer per stream, handed to the channel
   every [flush_at] bytes. The size is measured: on the repository
   benchmark's cfd_merge workload 64 KiB left peak RSS where the
   line-at-a-time writer had it, while 16 KiB raised it by 3.5 MB. *)
let flush_at = 65536

module Writer = struct
  type t = { oc : out_channel; buf : Buffer.t; mutable count : int }

  let create oc =
    let buf = Buffer.create (2 * flush_at) in
    Buffer.add_string buf (header ^ "\n");
    { oc; buf; count = 0 }

  let add t e =
    t.count <- t.count + 1;
    let buf = t.buf in
    encode_into buf e;
    Buffer.add_char buf '\n';
    if Buffer.length buf >= flush_at then begin
      Buffer.output_buffer t.oc buf;
      Buffer.clear buf
    end

  let count t = t.count

  let close t =
    Buffer.add_string t.buf (footer t.count ^ "\n");
    Buffer.output_buffer t.oc t.buf;
    Buffer.clear t.buf
end

let write_all oc events =
  let w = Writer.create oc in
  List.iter (Writer.add w) events;
  Writer.close w

let parse_footer line =
  match String.split_on_char ' ' line with
  | [ p; n ] when p = footer_prefix -> int_of_string_opt n
  | _ -> None

(* Only format 2 is read. A header naming another format says so, so an
   old unframed (format 1) trace reads as "re-record it", not as
   corruption. *)
let bad_header line =
  let reason =
    match String.split_on_char ' ' line with
    | [ "rma-trace"; v ] when String.length line <= Lines.max_quoted ->
        Printf.sprintf "bad header %S: trace format %S is unsupported (only format 2 is read)" line
          v
    | _ -> "bad header " ^ Lines.quote line
  in
  { at_line = 1; reason }

let is_footer line = String.starts_with ~prefix:footer_prefix line

(* A rejected trace is an operational incident, not just a return
   value: journal it. *)
let fail e =
  Rma_obs.Events.emit
    ~kv:[ ("event", "read_error"); ("at_line", string_of_int e.at_line); ("reason", e.reason) ]
    Rma_obs.Events.Error "codec";
  Error e

module Incremental = struct
  type phase = Awaiting_header | Streaming | Finished

  type t = {
    mutable phase : phase;
    mutable lineno : int;  (* 1-based line number of the next [feed]. *)
    mutable count : int;
    dec : decoder;
  }

  type step = Event of Event.event | Skip | Complete of int

  let create () = { phase = Awaiting_header; lineno = 1; count = 0; dec = decoder () }

  let feed_slice t s start stop =
    let here = t.lineno in
    t.lineno <- here + 1;
    match t.phase with
    | Finished ->
        (* Trailing bytes after a complete frame are ignored. *)
        Ok Skip
    | Awaiting_header ->
        if stop - start = String.length header && slice_equal s start stop header 0 then begin
          t.phase <- Streaming;
          Ok Skip
        end
        else fail (bad_header (String.sub s start (stop - start)))
    | Streaming -> (
        (* No blank line or footer decodes as an event, so they are
           looked for, in a copy of the line, only once decoding has
           failed. *)
        match decode_line t.dec s start stop with
        | Ok e ->
            t.count <- t.count + 1;
            Ok (Event e)
        | Error reason -> (
            match String.sub s start (stop - start) with
            | line when String.trim line = "" -> Ok Skip
            | line when is_footer line -> (
                match parse_footer line with
                | Some n when n = t.count ->
                    t.phase <- Finished;
                    Ok (Complete n)
                | Some n ->
                    fail
                      {
                        at_line = here;
                        reason =
                          Printf.sprintf "footer count %d disagrees with %d decoded events" n
                            t.count;
                      }
                | None -> fail { at_line = here; reason = "malformed rma-trace-end footer" })
            | _ -> fail { at_line = here; reason }))

  let feed t line = feed_slice t line 0 (String.length line)

  let finish t =
    match t.phase with
    | Finished -> Ok t.count
    | Awaiting_header -> fail { at_line = 1; reason = "empty trace" }
    | Streaming ->
        fail { at_line = t.lineno; reason = "truncated trace: missing rma-trace-end footer" }
end

let fold (type e) ic
    (step : Incremental.t -> string -> int -> int -> (Incremental.step, e) result)
    ~(error : error -> e) : (int, e) result =
  let dec = Incremental.create () in
  let exception Stop of (int, e) result in
  let emit s start stop =
    match step dec s start stop with
    | Ok (Incremental.Complete n) -> raise_notrace (Stop (Ok n))
    | Ok (Incremental.Event _ | Incremental.Skip) -> ()
    | Error e -> raise_notrace (Stop (Error e))
  in
  match Lines.iter_slices ic emit with
  | true -> Result.map_error error (Incremental.finish dec)
  | false -> Result.map_error error (fail { at_line = dec.lineno; reason = "line too long" })
  | exception Stop r -> r

let read_all ic =
  let events = ref [] in
  let keep dec s start stop =
    let r = Incremental.feed_slice dec s start stop in
    (match r with Ok (Incremental.Event e) -> events := e :: !events | _ -> ());
    r
  in
  Result.map (fun _ -> List.rev !events) (fold ic keep ~error:Fun.id)
