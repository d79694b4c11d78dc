type t = {
  mutable count : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min_v : float;
  mutable max_v : float;
  mutable total : float;
}

let create () =
  { count = 0; mean = 0.0; m2 = 0.0; min_v = infinity; max_v = neg_infinity; total = 0.0 }

let add t x =
  t.count <- t.count + 1;
  t.total <- t.total +. x;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.count);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min_v then t.min_v <- x;
  if x > t.max_v then t.max_v <- x

let count t = t.count
let mean t = if t.count = 0 then 0.0 else t.mean
let variance t = if t.count < 2 then 0.0 else t.m2 /. float_of_int (t.count - 1)
let min_value t = t.min_v
let max_value t = t.max_v
let total t = t.total

let merge a b =
  if a.count = 0 then { b with count = b.count }
  else if b.count = 0 then { a with count = a.count }
  else begin
    let n = a.count + b.count in
    let delta = b.mean -. a.mean in
    let mean = a.mean +. (delta *. float_of_int b.count /. float_of_int n) in
    let m2 =
      a.m2 +. b.m2
      +. (delta *. delta *. float_of_int a.count *. float_of_int b.count /. float_of_int n)
    in
    {
      count = n;
      mean;
      m2;
      min_v = Float.min a.min_v b.min_v;
      max_v = Float.max a.max_v b.max_v;
      total = a.total +. b.total;
    }
  end

let percentile samples ~p =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Stats.percentile: empty sample array";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of [0,100]";
  Array.sort compare samples;
  if n = 1 then samples.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    if lo = hi then samples.(lo)
    else begin
      let frac = rank -. float_of_int lo in
      samples.(lo) +. (frac *. (samples.(hi) -. samples.(lo)))
    end
  end
