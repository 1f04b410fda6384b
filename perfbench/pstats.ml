(* Tail percentiles for benchmark reports (means and medians come from
   Prob.Stats).

   Tails follow one rule: a percentile is reported only when at least ten
   samples lie beyond it, so a "p99" is never the single largest value of
   a small sample. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* 1-based nearest rank of quantile [q] among [n] samples. The epsilon
   keeps [0.99 *. 1000.] from rounding up to rank 991. *)
let rank n q =
  let r = int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9)) in
  max 1 (min n r)

let quantile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Pstats.quantile: no samples";
  a.(rank n q - 1)

let beyond n q = n - rank n q

let tail xs q =
  let n = Array.length xs in
  if n > 0 && beyond n q >= 10 then Some (quantile xs q) else None
