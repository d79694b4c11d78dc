module Imap = Map.Make (Int)

type t = int Imap.t

let empty = Imap.empty

let create ~nprocs =
  let rec go acc i = if i >= nprocs then acc else go (Imap.add i 0 acc) (i + 1) in
  go Imap.empty 0

let get t i = Option.value (Imap.find_opt i t) ~default:0

let tick t i = Imap.add i (get t i + 1) t

let set t i v = Imap.add i v t

let merge a b = Imap.union (fun _ x y -> Some (max x y)) a b

let leq a b = Imap.for_all (fun i v -> v <= get b i) a

let equal a b = leq a b && leq b a

let happens_before a b = leq a b && not (equal a b)

let components t = Imap.fold (fun i v acc -> if v > 0 then (i, v) :: acc else acc) t [] |> List.rev

(* Rank x thread component encoding. Thread 0 of a rank maps to the
   plain rank id, so single-thread clocks are indistinguishable from the
   rank-indexed clocks every existing caller builds. Spawned threads
   (tid >= 1) map to negative keys, which can collide neither with rank
   ids nor with the virtual ids MUST-RMA allocates above [nprocs]. *)
let threads_per_rank = 1024

let rt_key ~rank ~thread =
  if rank < 0 then invalid_arg "Vclock.rt_key: negative rank";
  if thread < 0 || thread >= threads_per_rank then
    invalid_arg (Printf.sprintf "Vclock.rt_key: thread %d outside [0, %d)" thread threads_per_rank);
  if thread = 0 then rank else -((rank * threads_per_rank) + thread)

type stamp = { thread : int; epoch : int }

let stamp_of t ~thread = { thread; epoch = get t thread }

let stamp_observed s ~by = s.epoch <= get by s.thread

let pp fmt t =
  Format.fprintf fmt "{";
  Imap.iter (fun i v -> if v > 0 then Format.fprintf fmt "%d:%d " i v) t;
  Format.fprintf fmt "}"

let to_string t =
  let comps = components t in
  if comps = [] then "{}"
  else
    "{ " ^ String.concat ", " (List.map (fun (i, v) -> Printf.sprintf "%d:%d" i v) comps) ^ " }"

(* Dual clocks for the predictive analysis: each rank carries an
   OBSERVED clock advanced on every scheduler-visible progress point
   (epoch closes — the incidental order the one simulated run happened
   to take) and a WEAK clock advanced only on edges MPI semantics
   guarantee under every legal schedule (fences, globally flushed
   barriers). Two accesses separated in the observed order but not in
   the weak order are exactly the "schedulable race" class: a different
   interleaving could have overlapped them. *)
module Dual = struct
  type clock = t

  type nonrec t = { mutable observed : clock; mutable weak : clock }

  let create () = { observed = empty; weak = empty }

  let observed d = d.observed

  let weak d = d.weak

  let reset d =
    d.observed <- empty;
    d.weak <- empty

  let local_step d ~rank = d.observed <- tick d.observed rank

  (* A true synchronization edge joining every participant: both orders
     gather (componentwise max over all ranks) and each rank ticks its
     own component past the merge — the same shape as a barrier in a
     classic vector-clock analysis. *)
  let sync_step ds =
    let merged_obs = Array.fold_left (fun acc d -> merge acc d.observed) empty ds in
    let merged_weak = Array.fold_left (fun acc d -> merge acc d.weak) empty ds in
    Array.iteri
      (fun rank d ->
        d.observed <- tick merged_obs rank;
        d.weak <- tick merged_weak rank)
      ds
end
