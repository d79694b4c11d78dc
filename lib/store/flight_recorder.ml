open Rma_access

type origin = { access : Access.t; epoch : int }

type t = {
  ring : origin option array;
  mutable next : int;  (** Slot the next record lands in. *)
  mutable filled : int;  (** Live entries, <= capacity. *)
  mutable epoch : int;
}

let capacity = 512

let enabled = ref false

let enable () = enabled := true

let disable () = enabled := false

let is_enabled () = !enabled

let create () =
  if !enabled then Some { ring = Array.make capacity None; next = 0; filled = 0; epoch = 0 }
  else None

let record t access =
  let cap = Array.length t.ring in
  t.ring.(t.next) <- Some { access; epoch = t.epoch };
  t.next <- (t.next + 1) mod cap;
  if t.filled < cap then t.filled <- t.filled + 1

let note_epoch t = t.epoch <- t.epoch + 1

let current_epoch t = t.epoch

let clear t =
  Array.fill t.ring 0 (Array.length t.ring) None;
  t.next <- 0;
  t.filled <- 0

(* Oldest-first iteration: the oldest live entry sits at [next] when the
   ring has wrapped, at 0 otherwise. *)
let fold t ~init ~f =
  let cap = Array.length t.ring in
  let start = if t.filled = cap then t.next else 0 in
  let acc = ref init in
  for i = 0 to t.filled - 1 do
    match t.ring.((start + i) mod cap) with
    | Some origin -> acc := f !acc origin
    | None -> ()
  done;
  !acc

let history t query =
  List.rev
    (fold t ~init:[] ~f:(fun acc o ->
         if Interval.overlaps o.access.Access.interval query then o :: acc else acc))
