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

(* --- Decoding: one scanner over the fields of a line ---

   Fields are read in place, left to right, from [d.line]. A field in
   the canonical form the encoder writes takes a fast path; any other
   text goes through the general [int_of_string_opt] /
   [float_of_string_opt] parser on that field alone, so the set of
   accepted lines, the decoded values and the error strings are those
   of the split-and-parse grammar this scanner replaced. *)

exception Bad_field of string


(* One string field's previous raw text and its decoded value. *)
type memo = { mutable raw : string; mutable decoded : string }

type decoder = {
  mutable line : string;
  mutable pos : int;  (* Start of the next field. *)
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

(* The first [ch] in [s.[i..b-1]], or [b]. *)
let rec index_in s i b ch =
  if i >= b || String.unsafe_get s i = ch then i else index_in s (i + 1) b ch

let field_end s i = index_in s i (String.length s) '\t'

let rec count_tabs s i acc =
  if i >= String.length s then acc
  else count_tabs s (i + 1) (if String.unsafe_get s i = '\t' then acc + 1 else acc)

(* The extent [a, b) of the next field; moves past its tab. *)
let next_field d =
  let a = d.pos in
  let b = field_end d.line a in
  d.pos <- b + 1;
  b

let is_digit c = c >= '0' && c <= '9'

let rec digits_value s i b acc =
  if i >= b then acc
  else
    let c = String.unsafe_get s i in
    if is_digit c then digits_value s (i + 1) b ((acc * 10) + (Char.code c - 48)) else -1

(* [-?[0-9]{1,18}]: at most 18 digits always fit an int, so the value
   is exact and the general parser would return the same. *)
let int_slice s a b =
  let neg = b > a && String.unsafe_get s a = '-' in
  let d0 = if neg then a + 1 else a in
  let v = if b - d0 >= 1 && b - d0 <= 18 then digits_value s d0 b 0 else -1 in
  if v >= 0 then if neg then -v else v
  else
    let text = String.sub s a (b - a) in
    match int_of_string_opt text with
    | Some i -> i
    | None -> raise (Bad_field ("bad int " ^ Lines.clip text))

(* [-?[0-9]+\.[0-9]{9}] with at most 15 digits in all, the shape
   [%.9f] writes: the digits form an int [m] below 2^53, so
   [float_of_int m] and [1e9] are both exact and their quotient is the
   one correctly rounded double nearest m / 10^9 — exactly what
   [strtod] returns for the same text. The sign is applied last so
   [-0.000000000] stays [-0.]. *)
let float_slice s a b =
  let neg = b > a && String.unsafe_get s a = '-' in
  let d0 = if neg then a + 1 else a in
  let dot = b - 10 in
  let canonical = dot > d0 && b - d0 <= 16 && String.unsafe_get s dot = '.' in
  let ip = if canonical then digits_value s d0 dot 0 else -1 in
  let fp = if ip >= 0 then digits_value s (dot + 1) b 0 else -1 in
  if fp >= 0 then
    let t = float_of_int ((ip * 1_000_000_000) + fp) /. 1e9 in
    if neg then -.t else t
  else
    let text = String.sub s a (b - a) in
    match float_of_string_opt text with
    | Some f -> f
    | None -> raise (Bad_field ("bad float " ^ Lines.clip text))

let int_field d =
  let a = d.pos in
  int_slice d.line a (next_field d)

let float_field d =
  let a = d.pos in
  float_slice d.line a (next_field d)

let opt_int_field d =
  let a = d.pos in
  let b = next_field d in
  if b - a = 1 && String.unsafe_get d.line a = '-' then None else Some (int_slice d.line a b)

let bool_field d =
  let a = d.pos in
  let b = next_field d in
  match if b - a = 1 then String.unsafe_get d.line a else ' ' with
  | '1' -> true
  | '0' -> false
  | _ -> raise (Bad_field ("bad bool " ^ Lines.clip (String.sub d.line a (b - a))))

let rec slice_equal s a b t i =
  a >= b || (String.unsafe_get s a = String.unsafe_get t i && slice_equal s (a + 1) b t (i + 1))

(* Whether [s.[a..b-1]] is the string [t]. *)
let slice_is s a b t = String.length t = b - a && slice_equal s a b t 0

let kind_field d =
  let a = d.pos in
  let b = next_field d in
  let is = slice_is d.line a b in
  if is "LR" then Access_kind.Local_read
  else if is "LW" then Access_kind.Local_write
  else if is "RR" then Access_kind.Rma_read
  else if is "RW" then Access_kind.Rma_write
  else if is "RA" then Access_kind.Rma_accumulate
  else raise (Bad_field ("unknown access kind " ^ Lines.quote (String.sub d.line a (b - a))))

(* A string field: the memo's decoded string when the bytes match its
   raw text, else one [String.sub] (plus [unescape] if it holds a [%])
   which the memo then keeps. *)
let string_field d m =
  let a = d.pos in
  let b = next_field d in
  if not (slice_is d.line a b m.raw) then begin
    let text = String.sub d.line a (b - a) in
    m.raw <- text;
    m.decoded <- (if String.contains text '%' then unescape text else text)
  end;
  m.decoded

let collective_field d =
  let a = d.pos in
  let b = next_field d in
  let is = slice_is d.line a b in
  if is "barrier" then Event.Barrier
  else if is "allreduce" then Event.Allreduce
  else if is "fence" then Event.Fence
  else raise (Bad_field ("unknown collective " ^ Lines.clip (String.sub d.line a (b - a))))

(* [c:v] pairs separated by commas, each component an int. *)
let tview_field d =
  let s = d.line in
  let a = d.pos in
  let b = next_field d in
  let pair pa pb =
    let bad () =
      raise (Bad_field ("bad thread-view pair " ^ Lines.clip (String.sub s pa (pb - pa))))
    in
    let c = index_in s pa pb ':' in
    if c = pb || index_in s (c + 1) pb ':' < pb then bad ()
    else
      match (int_slice s pa c, int_slice s (c + 1) pb) with
      | cv -> cv
      | exception Bad_field _ -> bad ()
  in
  let rec go pa acc =
    let pb = index_in s pa b ',' in
    let acc = pair pa pb :: acc in
    if pb < b then go (pb + 1) acc else List.rev acc
  in
  if a = b then [] else go a []

let decode_access d nfields =
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
  let thread =
    match nfields with
    | 14 -> default_thread d issuer
    | 17 ->
        let tid = int_field d in
        let tstamp = int_field d in
        let tview = tview_field d in
        { Access.tid; tstamp; tview }
    | _ -> raise (Bad_field "malformed thread fields on access record")
  in
  let access =
    Access.make_threaded ~thread ~interval:(Interval.make ~lo ~hi) ~kind ~issuer ~seq ~debug
  in
  Event.Access { Event.space; access; win; relevant; on_stack; sim_time }

let decode_fields d =
  let s = d.line in
  let nfields = count_tabs s 0 1 in
  let tag = if String.length s >= 1 && field_end s 0 = 1 then s.[0] else ' ' in
  d.pos <- 2;
  match (tag, nfields) with
  | 'A', n when n >= 14 -> decode_access d n
  | 'C', 4 ->
      let kind = collective_field d in
      let rank = int_field d in
      let sim_time = float_field d in
      Event.Collective { kind; rank; sim_time }
  | 'W', 6 ->
      let win = int_field d in
      let rank = int_field d in
      let base = int_field d in
      let size = int_field d in
      let sim_time = float_field d in
      Event.Win_created { win; rank; base; size; sim_time }
  | ('X' | 'O' | 'E'), 4 -> (
      let win = int_field d in
      let rank = int_field d in
      let sim_time = float_field d in
      match tag with
      | 'X' -> Event.Win_freed { win; rank; sim_time }
      | 'O' -> Event.Epoch_opened { win; rank; sim_time }
      | _ -> Event.Epoch_closed { win; rank; sim_time })
  | 'L', 5 ->
      let win = int_field d in
      let rank = int_field d in
      let target = opt_int_field d in
      let sim_time = float_field d in
      Event.Flushed { win; rank; target; sim_time }
  | 'Z', 3 ->
      let rank = int_field d in
      let sim_time = float_field d in
      Event.Finished { rank; sim_time }
  | _ -> raise (Bad_field ("malformed trace line " ^ Lines.quote s))

(* The grammar is total over well-formed OCaml strings, but "never
   raises" is a contract the fuzz suite enforces against arbitrary
   bytes — the catch-all keeps it robust against any field parser or
   constructor that throws. *)
let decode_line d line =
  d.line <- line;
  match decode_fields d with
  | e -> Ok e
  | exception Bad_field reason -> Error reason
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

  let feed t line =
    let here = t.lineno in
    t.lineno <- here + 1;
    match t.phase with
    | Finished ->
        (* Trailing bytes after a complete frame are ignored. *)
        Ok Skip
    | Awaiting_header ->
        if line = header then begin
          t.phase <- Streaming;
          Ok Skip
        end
        else fail (bad_header line)
    | Streaming ->
        if String.trim line = "" then Ok Skip
        else if is_footer line then
          match parse_footer line with
          | Some n when n = t.count ->
              t.phase <- Finished;
              Ok (Complete n)
          | Some n ->
              fail
                {
                  at_line = here;
                  reason =
                    Printf.sprintf "footer count %d disagrees with %d decoded events" n t.count;
                }
          | None -> fail { at_line = here; reason = "malformed rma-trace-end footer" }
        else
          match decode_line t.dec line with
          | Ok e ->
              t.count <- t.count + 1;
              Ok (Event e)
          | Error reason -> fail { at_line = here; reason }

  let finish t =
    match t.phase with
    | Finished -> Ok t.count
    | Awaiting_header -> fail { at_line = 1; reason = "empty trace" }
    | Streaming ->
        fail { at_line = t.lineno; reason = "truncated trace: missing rma-trace-end footer" }
end

let fold (type e) ic (step : Incremental.t -> string -> (Incremental.step, e) result)
    ~(error : error -> e) : (int, e) result =
  let dec = Incremental.create () in
  let exception Stop of (int, e) result in
  let emit line =
    match step dec line with
    | Ok (Incremental.Complete n) -> raise_notrace (Stop (Ok n))
    | Ok (Incremental.Event _ | Incremental.Skip) -> ()
    | Error e -> raise_notrace (Stop (Error e))
  in
  match Lines.iter_channel ic emit with
  | true -> Result.map_error error (Incremental.finish dec)
  | false -> Result.map_error error (fail { at_line = dec.lineno; reason = "line too long" })
  | exception Stop r -> r

let read_all ic =
  let events = ref [] in
  let keep dec line =
    let r = Incremental.feed dec line in
    (match r with Ok (Incremental.Event e) -> events := e :: !events | _ -> ());
    r
  in
  Result.map (fun _ -> List.rev !events) (fold ic keep ~error:Fun.id)
