(* A hello line is a few hundred bytes, an event line stays under 1 KiB
   even with long escaped file names, and the longest journal line of
   the golden runs is 197 bytes; 64 KiB is far above any legitimate
   line, yet bounds what a stream that never sends '\n' can make a
   reader hold. *)
let max_line_bytes = 65_536

let max_quoted = 64

let clipped fmt s =
  let n = String.length s in
  if n <= max_quoted then Printf.sprintf fmt s
  else Printf.sprintf fmt (String.sub s 0 max_quoted) ^ Printf.sprintf "… (%d bytes)" n

let clip s = clipped "%s" s
let quote s = clipped "%S" s

external word_at : bytes -> int -> int64 = "%caml_bytes_get64u"

let rec byte_newline b i len =
  if i >= len || Bytes.unsafe_get b i = '\n' then i else byte_newline b (i + 1) len

(* The first '\n' in [b.[i..len-1]], or [len], eight bytes at a time:
   [x] has a zero byte where the word has a '\n', and
   [(x - 0x01..) land (lnot x) land 0x80..] is nonzero exactly when [x]
   has a zero byte; the byte loop then finds it in that word. *)
let rec newline_in b i len =
  if i + 8 > len then byte_newline b i len
  else
    let x = Int64.logxor (word_at b i) 0x0a0a0a0a0a0a0a0aL in
    let zero =
      Int64.logand (Int64.logand (Int64.sub x 0x0101010101010101L) (Int64.lognot x))
        0x8080808080808080L
    in
    if Int64.equal zero 0L then newline_in b (i + 8) len else byte_newline b i len

(* Only the new chunk is scanned for newlines, so each byte is looked at
   once however the stream is split into reads. A line's '\r' may be the
   last byte of [pending] when the '\n' opens the next chunk. A line
   inside the chunk is passed as a view of it, [Bytes.unsafe_to_string]
   sharing the bytes the next read overwrites: [emit] copies what it
   keeps. Only a line that straddles two chunks is copied. *)
let split_lines pending chunk len emit =
  let fits n = Buffer.length pending + n <= max_line_bytes in
  let view = Bytes.unsafe_to_string chunk in
  let rec go start =
    let stop = newline_in chunk start len in
    if stop = len then begin
      let rest = len - start in
      let ok = fits rest in
      if ok then Buffer.add_subbytes pending chunk start rest;
      ok
    end
    else if fits (stop - start) then begin
      let cr = stop > start && Bytes.unsafe_get chunk (stop - 1) = '\r' in
      let last = if cr then stop - 1 else stop in
      if Buffer.length pending = 0 then emit view start last
      else begin
        Buffer.add_subbytes pending chunk start (last - start);
        let n = Buffer.length pending in
        let n = if stop = start && Buffer.nth pending (n - 1) = '\r' then n - 1 else n in
        let line = Buffer.sub pending 0 n in
        Buffer.clear pending;
        emit line 0 n
      end;
      go (stop + 1)
    end
    else false
  in
  go 0

let iter_slices ic emit =
  let pending = Buffer.create 256 in
  (* The size of the channel's own buffer, so one read fills it. *)
  let chunk = Bytes.create 65536 in
  let rec go () =
    match In_channel.input ic chunk 0 (Bytes.length chunk) with
    | 0 ->
        (* As [input_line]: a last line needs no newline. *)
        let n = Buffer.length pending in
        if n > 0 then emit (Buffer.contents pending) 0 n;
        true
    | n -> split_lines pending chunk n emit && go ()
  in
  go ()

let iter_channel ic emit = iter_slices ic (fun s a b -> emit (String.sub s a (b - a)))
