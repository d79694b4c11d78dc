(* [ring.(head)] .. [ring.(head + length - 1)] modulo the power-of-two
   capacity, oldest first; [dummy] in vacated slots keeps nothing alive. *)
type 'a t = { dummy : 'a; mutable ring : 'a array; mutable head : int; mutable length : int }

let create ~dummy = { dummy; ring = Array.make 16 dummy; head = 0; length = 0 }
let length q = q.length
let slot q i = (q.head + i) land (Array.length q.ring - 1)

(* [take] copies up to [length - 1] elements behind the tail, so the
   capacity stays at least twice the length. *)
let add q x =
  if 2 * (q.length + 1) > Array.length q.ring then begin
    q.ring <-
      Array.init (2 * Array.length q.ring) (fun i ->
          if i < q.length then q.ring.(slot q i) else q.dummy);
    q.head <- 0
  end;
  q.ring.(slot q q.length) <- x;
  q.length <- q.length + 1

let take q idx =
  if idx < 0 || idx >= q.length then invalid_arg "Run_queue.take";
  let n = q.length and chosen = q.ring.(slot q idx) in
  for j = 0 to idx - 1 do
    q.ring.(slot q (n + j)) <- q.ring.(slot q (idx - 1 - j))
  done;
  for j = 0 to idx do
    q.ring.(slot q j) <- q.dummy
  done;
  q.head <- slot q (idx + 1);
  q.length <- n - 1;
  chosen
