module Json = Rma_util.Json
module Toolbox = Rma_analysis.Toolbox

let version = 1

type hello = {
  session : string;
  tool : Toolbox.kind;
  nprocs : int;
  jobs : int option;
  predictive : bool option;
  budget : Rma_fault.Budget.t option;
  fault : Rma_fault.Plan.t option;
}

let ( let* ) r f = Result.bind r f

let opt_field name conv j =
  match Json.member name j with
  | None | Some Json.Null -> Ok None
  | Some v -> (
      match conv v with
      | Some v -> Ok (Some v)
      | None -> Error (Printf.sprintf "ill-typed hello field %S" name))

let spec_field name of_spec j =
  match Json.member name j with
  | None | Some Json.Null -> Ok None
  | Some v -> (
      match Json.to_str v with
      | None -> Error (Printf.sprintf "ill-typed hello field %S" name)
      | Some s -> (
          match of_spec s with
          | Ok parsed -> Ok (Some parsed)
          | Error e -> Error (Printf.sprintf "bad %s spec: %s" name e)))

let parse_hello line =
  let* j = Result.map_error (fun e -> "malformed hello: " ^ e) (Json.of_string line) in
  let* () =
    match Option.bind (Json.member "hello" j) Json.to_int with
    | Some v when v = version -> Ok ()
    | Some v -> Error (Printf.sprintf "unsupported protocol version %d (want %d)" v version)
    | None -> Error "missing \"hello\" version field"
  in
  let* session =
    match Option.bind (Json.member "session" j) Json.to_str with
    | Some s when s <> "" && String.length s <= 128 -> Ok s
    | Some _ -> Error "session name must be 1..128 characters"
    | None -> Error "missing \"session\" field"
  in
  let* tool =
    match Json.member "tool" j with
    | None | Some Json.Null -> Ok Toolbox.Contribution
    | Some v -> (
        match Option.bind (Json.to_str v) Toolbox.of_slug with
        | Some k -> Ok k
        | None -> Error "unknown tool slug")
  in
  let* nprocs =
    match Option.bind (Json.member "nprocs" j) Json.to_int with
    | Some n when n >= 1 -> Ok n
    | Some _ -> Error "nprocs must be >= 1"
    | None -> Error "missing \"nprocs\" field"
  in
  let* jobs = opt_field "jobs" Json.to_int j in
  let* predictive = opt_field "predictive" Json.to_bool j in
  let* budget = spec_field "budget" Rma_fault.Budget.of_spec j in
  let* fault = spec_field "fault" Rma_fault.Plan.of_spec j in
  Ok { session; tool; nprocs; jobs; predictive; budget; fault }

(* ------------------------------------------------------------------ *)
(* Server -> client lines                                              *)
(* ------------------------------------------------------------------ *)

let msg fields = Json.to_string ~minify:true (Json.Obj fields)
let session_field = function None -> [] | Some s -> [ ("session", Json.String s) ]

let admitted ~session ~run_id =
  msg
    [
      ("type", Json.String "admitted");
      ("protocol", Json.Int version);
      ("session", Json.String session);
      ("run_id", Json.String run_id);
    ]

let queued ~session ~position =
  msg
    [ ("type", Json.String "queued"); ("session", Json.String session);
      ("position", Json.Int position) ]

let load_shed ?session ~active ~queued () =
  msg
    (("type", Json.String "load_shed") :: session_field session
    @ [ ("active", Json.Int active); ("queued", Json.Int queued) ])

let error ?session reason =
  msg (("type", Json.String "error") :: session_field session @ [ ("reason", Json.String reason) ])

let race report =
  msg [ ("type", Json.String "race"); ("race", Rma_report.Race_export.report_json report) ]

let summary ~session ~events ~races ~digest ~degraded_drops =
  msg
    [
      ("type", Json.String "summary");
      ("session", Json.String session);
      ("events", Json.Int events);
      ("races", Json.Int races);
      ("digest", Json.String digest);
      ("degraded_drops", Json.Int degraded_drops);
    ]
