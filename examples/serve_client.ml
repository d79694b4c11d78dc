(* A reference client for the `rma_race serve` daemon: connect, send the
   one-line JSON handshake, stream a recorded trace file, and print every
   verdict line the server sends back. The CI smoke test and TUTORIAL.md
   section 7 drive the daemon with exactly this binary.

     rma_race record rrb_lockall_remote_conflict_put_put_race --out racy.rma
     rma_race serve --port 0            # note the serve-port: N line
     dune exec examples/serve_client.exe -- --port N --trace racy.rma

   Options mirror the handshake fields (OPERATIONS.md):
     --port N | --socket PATH    where the daemon listens
     --trace FILE                Codec format-2 trace to stream (required)
     --session NAME              display name (default: trace basename)
     --tool SLUG                 detector slug (default contribution)
     --nprocs N                  rank count (default: inferred from the trace;
                                 required when the trace is a pipe)
     --budget SPEC --predictive
     --abort-after N             disconnect after N trace lines (churn demo)

   Exit status: 0 after a summary line, 3 on error/load_shed, 2 on usage. *)

module Json = Rma_util.Json

let usage = "serve_client --port N|--socket PATH --trace FILE [options]"

let port = ref None
let socket = ref None
let trace = ref None
let session = ref None
let tool = ref None
let nprocs = ref None
let budget = ref None
let predictive = ref false
let abort_after = ref None

let spec =
  [
    ("--port", Arg.Int (fun v -> port := Some v), "N  daemon TCP port on 127.0.0.1");
    ("--socket", Arg.String (fun v -> socket := Some v), "PATH  daemon Unix-domain socket");
    ("--trace", Arg.String (fun v -> trace := Some v), "FILE  trace file to stream");
    ("--session", Arg.String (fun v -> session := Some v), "NAME  session display name");
    ("--tool", Arg.String (fun v -> tool := Some v), "SLUG  detector (default contribution)");
    ("--nprocs", Arg.Int (fun v -> nprocs := Some v), "N  rank count (default: from the trace)");
    ("--budget", Arg.String (fun v -> budget := Some v), "SPEC  per-session store budget");
    ("--predictive", Arg.Set predictive, " run the predictive analysis too");
    ("--abort-after", Arg.Int (fun v -> abort_after := Some v), "N  disconnect after N lines");
  ]

let die fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt

let read_lines path =
  match open_in_bin path with
  | exception Sys_error e -> die "serve_client: %s" e
  | ic ->
      let rec go acc = match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> close_in ic; List.rev acc
      in
      go []

let hello_line ~session ~nprocs =
  let opt name f = function None -> [] | Some v -> [ (name, f v) ] in
  let flag name v = if v then [ (name, Json.Bool true) ] else [] in
  Json.to_string ~minify:true
    (Json.Obj
       ([ ("hello", Json.Int 1); ("session", Json.String session); ("nprocs", Json.Int nprocs) ]
       @ opt "tool" (fun s -> Json.String s) !tool
       @ opt "budget" (fun s -> Json.String s) !budget
       @ flag "predictive" !predictive))

let () =
  Arg.parse spec (fun a -> die "serve_client: unexpected argument %S" a) usage;
  let trace = match !trace with Some t -> t | None -> die "serve_client: --trace is required" in
  (* Inferring the rank count reads the file a second time, which would
     find a pipe drained: refuse one up front, as [rma_race analyze] does. *)
  if Option.is_none !nprocs && (try not (Sys.is_regular_file trace) with Sys_error _ -> false)
  then
    die "serve_client: %s: not a regular file, so its rank count cannot be inferred; give --nprocs N"
      trace;
  let lines = read_lines trace in
  let session =
    match !session with Some s -> s | None -> Filename.remove_extension (Filename.basename trace)
  in
  let nprocs =
    match !nprocs with
    | Some n -> n
    | None -> (
        match Rma_trace.Ingest.ranks trace with
        | Ok n -> n
        | Error e -> die "serve_client: cannot infer --nprocs from %s: %s" trace e)
  in
  let fd =
    match (!socket, !port) with
    | Some path, _ ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        fd
    | None, Some p ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, p));
        fd
    | None, None -> die "serve_client: one of --port or --socket is required"
  in
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let out = Unix.out_channel_of_descr fd in
  let send line = output_string out line; output_char out '\n' in
  send (hello_line ~session ~nprocs);
  (* Stream the trace; an --abort-after client hangs up mid-stream, which
     the daemon records as a disconnect — the churn scenario. *)
  let sent = ref 0 in
  let aborted =
    try
      List.iter
        (fun line ->
          (match !abort_after with Some n when !sent >= n -> raise Exit | _ -> ());
          send line;
          incr sent)
        lines;
      false
    with Exit -> true
  in
  flush out;
  if aborted then begin
    Printf.printf "aborted after %d lines\n%!" !sent;
    Unix.close fd;
    exit 0
  end;
  (* Half-close: trace fully sent, now drain the server's verdict lines. *)
  (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  let ic = Unix.in_channel_of_descr fd in
  let status = ref 3 in
  (try
     while true do
       let line = input_line ic in
       print_endline line;
       match Json.of_string line with
       | Ok j -> (
           match Option.bind (Json.member "type" j) Json.to_str with
           | Some "summary" -> status := 0
           | Some ("error" | "load_shed") -> status := 3
           | _ -> ())
       | Error _ -> ()
     done
   with End_of_file | Sys_error _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  exit !status
