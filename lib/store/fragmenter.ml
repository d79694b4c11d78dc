open Rma_access

let fragment ~candidates ~new_acc =
  let nl = Interval.lo new_acc.Access.interval and nh = Interval.hi new_acc.Access.interval in
  let pieces = ref [] in
  let created = ref 0 in
  let pass_through piece = pieces := piece :: !pieces in
  let emit piece =
    incr created;
    pieces := piece :: !pieces
  in
  let cursor = ref nl in
  List.iter
    (fun cand ->
      let civ = cand.Access.interval in
      if not (Interval.overlaps civ new_acc.Access.interval) then
        (* Merely adjacent: nothing to fragment; kept so merging can see
           it. *)
        pass_through cand
      else begin
        (match Interval.left_remainder ~outer:civ ~cut:new_acc.Access.interval with
        | Some left -> emit (Access.with_interval cand left)
        | None -> ());
        let s = Int.max (Interval.lo civ) nl and e = Int.min (Interval.hi civ) nh in
        if !cursor < s then
          emit (Access.with_interval new_acc (Interval.make ~lo:!cursor ~hi:(s - 1)));
        emit (Access.dominate ~older:cand ~newer:new_acc (Interval.make ~lo:s ~hi:e));
        cursor := e + 1;
        match Interval.right_remainder ~outer:civ ~cut:new_acc.Access.interval with
        | Some right -> emit (Access.with_interval cand right)
        | None -> ()
      end)
    candidates;
  if !cursor <= nh then
    emit (Access.with_interval new_acc (Interval.make ~lo:!cursor ~hi:nh));
  let sorted =
    List.sort (fun a b -> Interval.compare_lo a.Access.interval b.Access.interval) !pieces
  in
  (sorted, !created)

let merge pieces =
  let merges = ref 0 in
  let rec go acc = function
    | [] -> List.rev acc
    | piece :: rest -> (
        match acc with
        | prev :: acc_rest
          when Access.mergeable prev piece
               && (Interval.adjacent prev.Access.interval piece.Access.interval
                  || Interval.overlaps prev.Access.interval piece.Access.interval) ->
            incr merges;
            let merged =
              Access.with_interval (Access.most_recent prev piece)
                (Interval.hull prev.Access.interval piece.Access.interval)
            in
            go (merged :: acc_rest) rest
        | _ -> go (piece :: acc) rest)
  in
  let out = go [] pieces in
  (out, !merges)
