type t = { lo : int; hi : int }

let make ~lo ~hi =
  if lo > hi then
    invalid_arg (Printf.sprintf "Interval.make: lo %d > hi %d" lo hi);
  { lo; hi }

let of_range ~addr ~len =
  if len <= 0 then invalid_arg (Printf.sprintf "Interval.of_range: len %d <= 0" len);
  { lo = addr; hi = addr + len - 1 }

let byte a = { lo = a; hi = a }

let lo t = t.lo
let hi t = t.hi
let length t = t.hi - t.lo + 1

let contains t a = t.lo <= a && a <= t.hi

let overlaps a b = a.lo <= b.hi && b.lo <= a.hi

let adjacent a b = a.hi + 1 = b.lo || b.hi + 1 = a.lo

let intersection a b =
  let lo = Int.max a.lo b.lo and hi = Int.min a.hi b.hi in
  if lo <= hi then Some { lo; hi } else None

let left_remainder ~outer ~cut =
  if outer.lo < cut.lo then Some { lo = outer.lo; hi = Int.min outer.hi (cut.lo - 1) } else None

let right_remainder ~outer ~cut =
  if outer.hi > cut.hi then Some { lo = Int.max outer.lo (cut.hi + 1); hi = outer.hi } else None

let hull a b = { lo = Int.min a.lo b.lo; hi = Int.max a.hi b.hi }

let compare_lo a b =
  let c = compare a.lo b.lo in
  if c <> 0 then c else compare a.hi b.hi

let equal a b = a.lo = b.lo && a.hi = b.hi

let pp fmt t =
  if t.lo = t.hi then Format.fprintf fmt "[%d]" t.lo
  else Format.fprintf fmt "[%d...%d]" t.lo t.hi

let to_string t = Format.asprintf "%a" pp t
