type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(* SplitMix64 finalizer: two xor-shift-multiply rounds avalanche the
   incremented counter into a well-distributed 64-bit value. *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let seed = next_int64 t in
  (* A distinct mixing round keeps the child stream decorrelated from the
     parent's subsequent draws. *)
  { state = mix (Int64.logxor seed 0xA0761D6478BD642FL) }

let int t ~bound =
  assert (bound > 0);
  (* Keep 62 bits so the value stays non-negative as a 63-bit OCaml int. *)
  let raw = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  raw mod bound

let int_in_range t ~lo ~hi =
  assert (lo <= hi);
  lo + int t ~bound:(hi - lo + 1)

let float t ~bound =
  let raw = Int64.shift_right_logical (next_int64 t) 11 in
  (* 53 significant bits, the float mantissa width. *)
  Int64.to_float raw /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let bernoulli t ~p = float t ~bound:1.0 < p

let shuffle_in_place t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
