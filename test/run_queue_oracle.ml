(* A frozen copy of the scheduler's run queue as it was before it became
   a ring: a [Queue.t] of thunks, and a pick that pops [idx] elements
   into a scratch list, pops the chosen one and re-adds the scratch list.
   Every recorded schedule and golden trace was made with this order. It
   is a test oracle only — the property in [test_sim_step.ml] holds
   [Mpi_sim.Run_queue] to the same picks and the same remaining
   order after every step. Do not edit it to follow the library. *)

type 'a t = 'a Queue.t

let create () : 'a t = Queue.create ()
let add q x = Queue.add x q
let length = Queue.length

(* The historical [pick_runnable], with its draw from the interleave
   stream. The caller guarantees the queue is non-empty. *)
let pick q interleave =
  let n = Queue.length q in
  let idx = if n <= 1 then 0 else Rma_util.Prng.int interleave ~bound:n in
  let scratch = ref [] in
  for _ = 1 to idx do
    scratch := Queue.pop q :: !scratch
  done;
  let chosen = Queue.pop q in
  List.iter (fun t -> Queue.add t q) !scratch;
  chosen

let to_list q = List.of_seq (Queue.to_seq q)
