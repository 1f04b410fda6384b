(* Correctness oracle, kept apart from the code under test. Exact
   posteriors come from enumerating the generating network
   (Bayesnet.Network.posterior_single / posterior_joint) and divergences
   from Prob.Divergence.kl; what this module adds is the check that an
   answer is a distribution and the evidence-blind baseline. *)

(* A distribution over exactly [size] values: finite, non-negative,
   summing to one. *)
let valid_dist ~size q =
  Array.length q = size
  && Array.for_all (fun x -> Float.is_finite x && x >= 0.) q
  && Float.abs (Array.fold_left ( +. ) 0. q -. 1.) <= 1e-9

(* Per-attribute marginals of the training points, Laplace-smoothed so
   the baseline's KL is finite. *)
let marginals ~cards points =
  Array.mapi
    (fun a card ->
      let counts = Array.make card 1. in
      Array.iter (fun p -> counts.(p.(a)) <- counts.(p.(a)) +. 1.) points;
      Prob.Dist.of_weights counts)
    cards

(* Product of the marginals of [missing] in mixed-radix code order (the
   order of Bayesnet.Network.posterior_joint and Mrsl.Gibbs.estimate.joint):
   the joint an ensemble that ignored all evidence would give. *)
let product ~cards marginals missing =
  let radices = Array.of_list (List.map (fun a -> cards.(a)) missing) in
  let attrs = Array.of_list missing in
  let out = Array.make (Relation.Domain.count radices) 0. in
  Relation.Domain.iter radices (fun code values ->
      let p = ref 1. in
      Array.iteri (fun i v -> p := !p *. Prob.Dist.prob marginals.(attrs.(i)) v) values;
      out.(code) <- !p);
  Prob.Dist.of_weights out
