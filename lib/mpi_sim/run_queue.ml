(* [ring.(head)] .. [ring.(head + length - 1)] modulo the power-of-two
   capacity, oldest first, are slot ids into [pool]. Moving an int
   needs no write barrier, so [take] shifts ids and touches [pool]
   twice, whatever the index. [free.(0 .. nfree - 1)] are the ids not
   in the ring; their [pool] slots hold [dummy], which keeps nothing
   alive. *)
type 'a t = {
  dummy : 'a;
  mutable ring : int array;
  mutable pool : 'a array;
  mutable free : int array;
  mutable nfree : int;
  mutable head : int;
  mutable length : int;
}

let create ~dummy =
  {
    dummy;
    ring = Array.make 16 0;
    pool = Array.make 8 dummy;
    free = Array.init 8 Fun.id;
    nfree = 8;
    head = 0;
    length = 0;
  }

let length q = q.length
let slot q i = (q.head + i) land (Array.length q.ring - 1)

(* [take] copies up to [length - 1] ids behind the tail, so the ring
   stays twice the size of the pool, and the pool grows when no id is
   free. *)
let add q x =
  if q.nfree = 0 then begin
    let size = Array.length q.pool in
    q.ring <- Array.init (4 * size) (fun i -> if i < q.length then q.ring.(slot q i) else 0);
    q.head <- 0;
    q.pool <- Array.init (2 * size) (fun i -> if i < size then q.pool.(i) else q.dummy);
    q.free <- Array.init (2 * size) (fun i -> size + i);
    q.nfree <- size
  end;
  q.nfree <- q.nfree - 1;
  let id = q.free.(q.nfree) in
  q.pool.(id) <- x;
  q.ring.(slot q q.length) <- id;
  q.length <- q.length + 1

let take q idx =
  if idx < 0 || idx >= q.length then invalid_arg "Run_queue.take";
  let n = q.length and id = q.ring.(slot q idx) in
  for j = 0 to idx - 1 do
    q.ring.(slot q (n + j)) <- q.ring.(slot q (idx - 1 - j))
  done;
  q.head <- slot q (idx + 1);
  q.length <- n - 1;
  let chosen = q.pool.(id) in
  q.pool.(id) <- q.dummy;
  q.free.(q.nfree) <- id;
  q.nfree <- q.nfree + 1;
  chosen
