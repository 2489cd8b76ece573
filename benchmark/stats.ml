(* Order statistics over measured samples.

   Percentiles use the nearest-rank definition: the p-th percentile of n
   sorted samples is the sample at 1-based rank ceil(p * n / 100), so it is
   always a value that was observed. Ranks are computed in integers so that
   e.g. p95 of 200 samples is exactly rank 190, leaving 10 beyond it. *)

let rank ~pct n = max 1 ((pct * n + 99) / 100)

let percentile ~pct samples =
  match samples with
  | [] -> 0.
  | _ ->
      let a = Array.of_list samples in
      Array.sort Float.compare a;
      a.(rank ~pct (Array.length a) - 1)

let median samples = percentile ~pct:50 samples

(* How many samples lie strictly beyond the percentile's rank. A
   percentile is worth reporting only with at least ten beyond it. *)
let beyond ~pct n = if n = 0 then 0 else n - rank ~pct n
let supported ~pct n = beyond ~pct n >= 10

let sum = List.fold_left ( +. ) 0.

let mean = function
  | [] -> 0.
  | xs -> sum xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> 0.
  | xs -> exp (mean (List.map log xs))

(* [a /. b], reading 0 when nothing was measured. *)
let ratio a b = if b = 0. then 0. else a /. b
