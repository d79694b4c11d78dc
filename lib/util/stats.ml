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
