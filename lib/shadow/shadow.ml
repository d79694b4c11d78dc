open Rma_access

type cell = {
  stamp : Rma_vclock.Vclock.stamp;
  lo : int;
  hi : int;
  kind : Access_kind.t;
  issuer : int;
  debug : Debug_info.t;
}

type race = { prior : cell; current : cell }

type t = {
  table : (int, cell list ref) Hashtbl.t;
  happens_before : Rma_vclock.Vclock.stamp -> Rma_vclock.Vclock.t -> bool;
}

let cells_per_granule = 4

let create ~happens_before () = { table = Hashtbl.create 4096; happens_before }

let granule_of addr = addr asr 3

let record_and_check t ~interval ~thread ~clock ~kind ~issuer ~debug =
  let is_write = Access_kind.is_write kind in
  let lo = Interval.lo interval and hi = Interval.hi interval in
  let race = ref None in
  for g = granule_of lo to granule_of hi do
    let slot =
      match Hashtbl.find_opt t.table g with
      | Some r -> r
      | None ->
          let r = ref [] in
          Hashtbl.replace t.table g r;
          r
    in
    let cell_lo = max lo (g * 8) and cell_hi = min hi ((g * 8) + 7) in
    let current =
      { stamp = Rma_vclock.Vclock.stamp_of clock ~thread; lo = cell_lo; hi = cell_hi; kind; issuer; debug }
    in
    if !race = None then begin
      let conflict prior =
        prior.stamp.Rma_vclock.Vclock.thread <> thread
        && (Access_kind.is_write prior.kind || is_write)
        && (not (Access_kind.is_accumulate prior.kind && Access_kind.is_accumulate kind))
        && prior.lo <= cell_hi && cell_lo <= prior.hi
        && not (t.happens_before prior.stamp clock)
      in
      match List.find_opt conflict !slot with
      | Some prior -> race := Some { prior; current }
      | None -> ()
    end;
    (* FIFO shadow update: newest first, bounded width. *)
    let kept = List.filteri (fun i _ -> i < cells_per_granule - 1) !slot in
    slot := current :: kept
  done;
  !race

let clear t = Hashtbl.reset t.table
