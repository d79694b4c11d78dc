module Lines = Rma_util.Lines

type policy = Fail_fast | Spill_oldest_epoch | Coarsen
type t = { max_nodes : int option; max_bytes : int option; policy : policy }

exception Exhausted of string

let unbounded = { max_nodes = None; max_bytes = None; policy = Fail_fast }
let is_unbounded t = t.max_nodes = None && t.max_bytes = None

let policy_name = function
  | Fail_fast -> "fail_fast"
  | Spill_oldest_epoch -> "spill_oldest_epoch"
  | Coarsen -> "coarsen"

let policy_of_string = function
  | "fail" | "fail_fast" -> Ok Fail_fast
  | "spill" | "spill_oldest_epoch" -> Ok Spill_oldest_epoch
  | "coarsen" -> Ok Coarsen
  | s -> Error (Printf.sprintf "unknown budget policy %s (fail|spill|coarsen)" (Lines.quote s))

let parse_cap key v =
  match int_of_string_opt v with
  | Some n when n > 0 -> Ok n
  | _ -> Error (Printf.sprintf "%s: expected positive integer, got %s" key (Lines.quote v))

let of_spec spec =
  let spec = String.trim spec in
  (* Shorthand: "<nodes>:<policy>". *)
  match String.index_opt spec ':' with
  | Some i when not (String.contains spec '=') ->
      let n = String.sub spec 0 i in
      let pol = String.sub spec (i + 1) (String.length spec - i - 1) in
      Result.bind (parse_cap "nodes" n) (fun cap ->
          Result.map
            (fun policy -> { unbounded with max_nodes = Some cap; policy })
            (policy_of_string pol))
  | _ ->
      let fields =
        String.split_on_char ',' spec
        |> List.map String.trim
        |> List.filter (fun s -> s <> "")
      in
      let parse_field acc field =
        match acc with
        | Error _ as e -> e
        | Ok t -> (
            match String.index_opt field '=' with
            | None -> Error (Printf.sprintf "expected key=value, got %s" (Lines.quote field))
            | Some i -> (
                let key = String.sub field 0 i in
                let v = String.sub field (i + 1) (String.length field - i - 1) in
                match key with
                | "nodes" ->
                    Result.map (fun n -> { t with max_nodes = Some n }) (parse_cap key v)
                | "bytes" ->
                    Result.map (fun n -> { t with max_bytes = Some n }) (parse_cap key v)
                | "policy" -> Result.map (fun policy -> { t with policy }) (policy_of_string v)
                | _ -> Error (Printf.sprintf "unknown budget key %s" (Lines.quote key))))
      in
      List.fold_left parse_field (Ok unbounded) fields

let to_spec t =
  let caps =
    (match t.max_nodes with Some n -> [ Printf.sprintf "nodes=%d" n ] | None -> [])
    @ match t.max_bytes with Some n -> [ Printf.sprintf "bytes=%d" n ] | None -> []
  in
  String.concat "," (caps @ [ "policy=" ^ policy_name t.policy ])

let pp fmt t = Format.pp_print_string fmt (to_spec t)
