(* The race exports as their writers leave them on disk: each helper
   goes through [Race_export]'s file functions and a temporary file. *)

module Race_export = Rma_report.Race_export
module Json = Rma_util.Json

let with_temp_file f =
  let path = Filename.temp_file "rma_export" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* The text of the SARIF file [write_sarif] writes. *)
let sarif ?run_id reports =
  with_temp_file @@ fun path ->
  Race_export.write_sarif ~path ?run_id ~generator:"test" reports;
  In_channel.with_open_bin path In_channel.input_all

(* [json] read back by [load_json_with_run_id]. *)
let decode json =
  with_temp_file @@ fun path ->
  Json.write ~path json;
  Result.map fst (Race_export.load_json_with_run_id ~path)

(* The header version [to_json] stamps on these reports. *)
let schema_version reports =
  Option.bind
    (Json.member "schema_version" (Race_export.to_json ~generator:"test" reports))
    Json.to_int
