module Obs = Rma_obs.Obs
module Prng = Rma_util.Prng
module Lines = Rma_util.Lines

type site = Trace_corrupt | Trace_truncate

let site_name = function Trace_corrupt -> "trace_corrupt" | Trace_truncate -> "trace_truncate"
let site_index = function Trace_corrupt -> 0 | Trace_truncate -> 1
let all_sites = [ Trace_corrupt; Trace_truncate ]
let n_sites = List.length all_sites

module Plan = struct
  type t = { seed : int; trace_corrupt : float; trace_truncate : float }

  let default = { seed = 1; trace_corrupt = 0.0; trace_truncate = 0.0 }
  let rate t = function Trace_corrupt -> t.trace_corrupt | Trace_truncate -> t.trace_truncate

  let parse_rate key v =
    match float_of_string_opt v with
    | Some f when f >= 0.0 && f <= 1.0 -> Ok f
    | Some _ -> Error (Printf.sprintf "%s: rate %s outside [0, 1]" key (Lines.clip v))
    | None -> Error (Printf.sprintf "%s: malformed rate %s" key (Lines.quote v))

  let of_spec spec =
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
              | "seed" -> (
                  match int_of_string_opt v with
                  | Some s -> Ok { t with seed = s }
                  | None -> Error (Printf.sprintf "seed: malformed integer %s" (Lines.quote v)))
              | "trace_corrupt" ->
                  Result.map (fun r -> { t with trace_corrupt = r }) (parse_rate key v)
              | "trace_truncate" ->
                  Result.map (fun r -> { t with trace_truncate = r }) (parse_rate key v)
              | _ -> Error (Printf.sprintf "unknown fault-plan key %s" (Lines.quote key))))
    in
    List.fold_left parse_field (Ok default) fields

  let to_spec t =
    Printf.sprintf "seed=%d,trace_corrupt=%g,trace_truncate=%g" t.seed t.trace_corrupt
      t.trace_truncate

  let pp fmt t = Format.pp_print_string fmt (to_spec t)
end

(* A plan plus, per site, the ordinal of the next [fire] call and the
   count of fired faults. Ordinals make the schedule a pure function of
   (seed, site, visit number): the k-th visit of a site draws the same
   verdict whatever happened at other sites in between. *)
type t = { p : Plan.t; ordinals : int array; hits : int array }

let create p = { p; ordinals = Array.make n_sites 0; hits = Array.make n_sites 0 }
let plan t = t.p

let obs_injected =
  Array.of_list
    (List.map
       (fun s ->
         Obs.counter
           ~help:(Printf.sprintf "Faults injected at the %s site" (site_name s))
           (Printf.sprintf "fault.injected.%s" (site_name s)))
       all_sites)

(* Avalanche the (seed, site, ordinal) triple into one PRNG seed; the
   constants are the usual 32-bit hash multipliers, mixed in 63-bit
   native ints (wrap-around is fine — we only need dispersion). *)
let mix seed site ord =
  let h = (seed * 0x9E3779B1) + ((site + 1) * 0x85EBCA77) + ((ord + 1) * 0xC2B2AE3D) in
  h lxor (h lsr 29)

let fire t site =
  let i = site_index site in
  let ord = t.ordinals.(i) in
  t.ordinals.(i) <- ord + 1;
  let rate = Plan.rate t.p site in
  rate > 0.0
  &&
  let g = Prng.create ~seed:(mix t.p.Plan.seed i ord) in
  let hit = Prng.bernoulli g ~p:rate in
  if hit then begin
    t.hits.(i) <- t.hits.(i) + 1;
    Obs.incr obs_injected.(i)
  end;
  hit

let fired t site = t.hits.(site_index site)
let ordinal t site = t.ordinals.(site_index site)

module Budget = struct
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
end
