(* Order statistics shared by every workload. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a

(* Nearest rank: the smallest sample with at least [p] percent of the
   samples at or below it. *)
let rank ~n p =
  let r = int_of_float (Float.ceil (p *. float_of_int n /. 100.0)) in
  max 1 (min n r)

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  (sorted xs).(rank ~n p - 1)

let median xs = percentile xs 50.0

(* A percentile is reported only when at least [min_beyond] samples lie
   beyond it, so that it is not set by a handful of outliers. *)
let min_beyond = 10

let supported ~n p = n - rank ~n p >= min_beyond
