(* Bucket i >= 1 holds values in (lo_bound * 2^((i-1)/4), lo_bound * 2^(i/4)];
   bucket 0 is the underflow bucket for values <= lo_bound (zeros included). *)

let sub_per_octave = 4
let lo_bound = 1e-9
let n_buckets = 224 (* reaches lo_bound * 2^(223/4) ~ 6e7, enough for hours *)

type t = {
  h_name : string;
  h_help : string;
  h_unit : string;
  counts : int array;
  mutable total : int;
  mutable h_sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

let create ?(help = "") ?(unit_ = "s") name =
  {
    h_name = name;
    h_help = help;
    h_unit = unit_;
    counts = Array.make n_buckets 0;
    total = 0;
    h_sum = 0.0;
    min_v = infinity;
    max_v = neg_infinity;
  }

let bucket_of v =
  if v <= lo_bound then 0
  else begin
    let idx = 1 + int_of_float (Float.log2 (v /. lo_bound) *. float_of_int sub_per_octave) in
    if idx >= n_buckets then n_buckets - 1 else idx
  end

let observe t v =
  let b = bucket_of v in
  t.counts.(b) <- t.counts.(b) + 1;
  t.total <- t.total + 1;
  t.h_sum <- t.h_sum +. v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let reset t =
  Array.fill t.counts 0 n_buckets 0;
  t.total <- 0;
  t.h_sum <- 0.0;
  t.min_v <- infinity;
  t.max_v <- neg_infinity

let name t = t.h_name
let help t = t.h_help
let unit_label t = t.h_unit
let count t = t.total
let sum t = t.h_sum
let mean t = if t.total = 0 then 0.0 else t.h_sum /. float_of_int t.total
let max_value t = if t.total = 0 then 0.0 else t.max_v

(* Geometric midpoint of a bucket — the estimator that bounds relative
   error by the square root of the bucket ratio (~9%). The underflow
   bucket reports 0: its occupants are zeros (or sub-nanosecond noise),
   and "1e-09" in a percentile table reads as a real latency. *)
let bucket_mid i =
  if i = 0 then 0.0
  else lo_bound *. Float.exp2 ((float_of_int (i - 1) +. 0.5) /. float_of_int sub_per_octave)

let quantile t q =
  if t.total = 0 then 0.0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int t.total))) in
    let rec walk i cum =
      if i >= n_buckets then t.max_v
      else begin
        let cum = cum + t.counts.(i) in
        if cum >= rank then Float.max t.min_v (Float.min t.max_v (bucket_mid i))
        else walk (i + 1) cum
      end
    in
    walk 0 0
  end
