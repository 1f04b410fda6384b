(* Zipf-distributed ranks: rank k (0-based) is drawn with probability
   proportional to 1 / (k + 1)^s. Draws come from the caller's seeded
   [Prob.Rng.t], so a seed fixes the whole sequence. *)

type t = { cdf : float array }

let create ~n ~s =
  if n < 1 then invalid_arg "Zipf.create: n must be positive";
  if not (s >= 0.) then invalid_arg "Zipf.create: s must be >= 0";
  let w = Array.init n (fun k -> 1. /. (float_of_int (k + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  let cdf =
    Array.map
      (fun x ->
        acc := !acc +. (x /. total);
        !acc)
      w
  in
  cdf.(n - 1) <- 1.;
  { cdf }

(* First rank whose cumulative mass exceeds a uniform draw. *)
let sample t rng =
  let u = Prob.Rng.float rng in
  let lo = ref 0 and hi = ref (Array.length t.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo
