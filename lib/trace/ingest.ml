module Tool = Rma_analysis.Tool
module Incremental = Codec.Incremental

let event (tool : Tool.t) e =
  match tool.Tool.observer e with
  | _ | (exception Rma_analysis.Report.Race_abort _) -> Ok ()
  | exception Rma_store.Budget.Exhausted msg -> Error ("budget exhausted: " ^ msg)

let line tool dec s start stop =
  match Incremental.feed_slice dec s start stop with
  | Ok (Incremental.Event e as step) -> (
      match event tool e with Ok () -> Ok step | Error _ as err -> err)
  | Ok step -> Ok step
  | Error err -> Error (Codec.error_to_string err)

let fold_file path tool =
  try
    In_channel.with_open_text path (fun ic -> Codec.fold ic (line tool) ~error:Codec.error_to_string)
  with Sys_error msg -> Error msg

let ranks path =
  let n = ref 1 in
  let observer e =
    n := Post_mortem.nprocs_step !n e;
    0.0
  in
  Result.map (fun _ -> !n) (fold_file path { Tool.baseline with Tool.observer })

type run = { tool : Tool.t; nprocs : int; events : int }

let file ?nprocs ~make_tool path =
  let nprocs = match nprocs with Some n -> Ok n | None -> ranks path in
  Result.bind nprocs (fun nprocs ->
      let tool = make_tool ~nprocs in
      Result.map (fun events -> { tool; nprocs; events }) (fold_file path tool))
