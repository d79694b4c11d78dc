module Budget = Rma_store.Budget
module Events = Rma_obs.Events

type t = {
  predictive : bool;
  interleave_seed : int option;
  budget : Budget.t option;
  obs_events : string option;
  obs_level : Events.level;
}

let default =
  {
    predictive = false;
    interleave_seed = None;
    budget = None;
    obs_events = None;
    obs_level = Events.Info;
  }

let parsed what = function Some v -> Ok v | None -> Error ("expected " ^ what)
let int s = parsed "an integer" (int_of_string_opt (String.trim s))

(* Setters shared by the environment and the string codec, so a value
   means the same in both. *)
let set_predictive t v =
  match String.lowercase_ascii (String.trim v) with
  | "1" | "true" | "yes" | "on" -> Ok { t with predictive = true }
  | "0" | "false" | "no" | "off" -> Ok { t with predictive = false }
  | _ -> Error "expected true or false"

let set_interleave t v = Result.map (fun s -> { t with interleave_seed = Some s }) (int v)
let set_budget t v = Result.map (fun b -> { t with budget = Some b }) (Budget.of_spec v)

let set_level t v =
  parsed "debug, info, warn or error" (Events.level_of_string (String.trim v))
  |> Result.map (fun obs_level -> { t with obs_level })

let fields =
  [ ("predictive", set_predictive); ("interleave_seed", set_interleave); ("budget", set_budget) ]

let keys = List.map fst fields

let env =
  [
    ("RMA_PREDICTIVE", set_predictive);
    ("RMA_INTERLEAVE_SEED", set_interleave);
    ("RMA_BUDGET", set_budget);
    ("RMA_OBS_EVENTS", fun t v -> Ok { t with obs_events = Some v });
    ("RMA_OBS_LEVEL", set_level);
  ]

let apply ?(label = Fun.id) lookup setters base =
  List.fold_left
    (fun acc (name, set) ->
      match (acc, lookup name) with
      | Error _, _ | _, None -> acc
      | Ok t, Some v ->
          Result.map_error
            (Printf.sprintf "bad %s %s: %s" (label name) (Rma_util.Lines.quote v))
            (set t v))
    (Ok base) setters

let of_env () =
  let lookup var =
    match Sys.getenv_opt var with Some v when String.trim v <> "" -> Some v | _ -> None
  in
  apply lookup env default

let of_fields ?(base = default) ?label kv = apply ?label (fun k -> List.assoc_opt k kv) fields base

let to_fields t =
  [ ("predictive", string_of_bool t.predictive) ]
  @ Option.fold ~none:[] ~some:(fun s -> [ ("interleave_seed", string_of_int s) ]) t.interleave_seed
  @ Option.fold ~none:[] ~some:(fun b -> [ ("budget", Budget.to_spec b) ]) t.budget
