module Json = Rma_util.Json
module Toolbox = Rma_analysis.Toolbox
module Run_config = Rma_config.Run_config

let version = 1

type hello = {
  session : string;
  tool : Toolbox.kind;
  nprocs : int;
  run : Run_config.t;
}

let ( let* ) r f = Result.bind r f

(* The hello's run-configuration fields, as the string pairs
   [Run_config.of_fields] parses; each must have its JSON type. *)
let config_fields j =
  let as_string name conv =
    match Json.member name j with
    | None | Some Json.Null -> Ok []
    | Some v -> (
        match conv v with
        | Some s -> Ok [ (name, s) ]
        | None -> Error (Printf.sprintf "ill-typed hello field %S" name))
  in
  (* Clients written for the sharded engine still send a shard count;
     only the sequential one still means what it meant then. *)
  let* () =
    match Json.member "jobs" j with
    | None | Some Json.Null | Some (Json.Int 1) -> Ok ()
    | Some _ -> Error "hello field \"jobs\" must be 1 (the analyzer is sequential)"
  in
  (* Clients written while trace writes took a fault plan may still
     send one; refusing it says the plan no longer exists. *)
  let* () =
    match Json.member "fault" j with
    | None | Some Json.Null -> Ok ()
    | Some _ -> Error "hello field \"fault\" is not accepted (fault injection was removed)"
  in
  let* predictive = as_string "predictive" (fun v -> Option.map string_of_bool (Json.to_bool v)) in
  let* budget = as_string "budget" Json.to_str in
  Ok (predictive @ budget)

let parse_hello ?(base = Run_config.default) line =
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
  let* fields = config_fields j in
  let* run = Run_config.of_fields ~base fields in
  Ok { session; tool; nprocs; run }

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
