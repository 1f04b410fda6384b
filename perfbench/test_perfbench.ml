(* Tests of the benchmark's own helpers: the percentile rule, the Zipf
   sampler, response parsing, span self times and the KL oracle. *)

open Perfbench_lib

let close = Alcotest.float 1e-12

let test_percentile_rule () =
  let xs n = Array.init n (fun i -> float_of_int (n - i)) in
  Alcotest.(check (option (float 0.))) "999 samples: 9 beyond p99, no tail" None
    (Pstats.tail (xs 999) 0.99);
  Alcotest.(check (option (float 0.))) "1000 samples: 10 beyond p99" (Some 990.)
    (Pstats.tail (xs 1000) 0.99);
  Alcotest.(check (option (float 0.))) "20 samples: p50 has 10 beyond" (Some 10.)
    (Pstats.tail (xs 20) 0.5);
  Alcotest.(check (option (float 0.))) "19 samples: no p50 tail" None
    (Pstats.tail (xs 19) 0.5)

let draws seed =
  let z = Zipf.create ~n:100 ~s:1.0 in
  let rng = Prob.Rng.create seed in
  Array.init 2000 (fun _ -> Zipf.sample z rng)

let test_zipf () =
  Alcotest.(check (array int)) "same seed, same draws" (draws 7) (draws 7);
  Alcotest.(check bool) "another seed, other draws" true (draws 7 <> draws 8);
  let counts = Array.make 100 0 in
  Array.iter (fun k -> counts.(k) <- counts.(k) + 1) (draws 7);
  Alcotest.(check bool) "ranks in range" true
    (Array.for_all (fun k -> k >= 0 && k < 100) (draws 7));
  Alcotest.(check bool) "rank 0 is the most frequent" true
    (Array.for_all (fun c -> c <= counts.(0)) counts);
  (* With s = 1 over 100 ranks, rank 0 carries 1 / H(100) ~ 19%. *)
  Alcotest.(check bool) "rank 0 share near 1/H(100)" true
    (abs (counts.(0) - 385) < 80);
  let flat = Zipf.create ~n:4 ~s:0. in
  let rng = Prob.Rng.create 1 in
  let c = Array.make 4 0 in
  for _ = 1 to 4000 do
    let k = Zipf.sample flat rng in
    c.(k) <- c.(k) + 1
  done;
  Alcotest.(check bool) "s = 0 is uniform" true
    (Array.for_all (fun n -> abs (n - 1000) < 150) c)

let posterior_line =
  {|{"id":12,"ok":true,"kind":"posterior","epoch":3,"mode":"exact","attrs":[{"attr":"a2","index":2,"posterior":{"v0":0.12345678901234566,"v1":0.87654321098765434,"v2":1e-05}}]}|}

let test_parse_posterior () =
  match Response.parse posterior_line with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.(check (option int)) "id" (Some 12) r.id;
      Alcotest.(check bool) "ok" true r.ok;
      Alcotest.(check string) "kind" "posterior" r.kind;
      Alcotest.(check (option int)) "epoch" (Some 3) r.epoch;
      Alcotest.(check (option string)) "mode" (Some "exact") r.mode;
      (match r.attrs with
      | [ a ] ->
          Alcotest.(check int) "index" 2 a.index;
          Alcotest.(check (list string)) "labels in order" [ "v0"; "v1"; "v2" ]
            (List.map fst a.posterior);
          (* 17 significant digits read back to the same double. *)
          Alcotest.(check bool) "exact float" true
            (List.assoc "v0" a.posterior = 0.12345678901234566
            && List.assoc "v1" a.posterior = 0.87654321098765434)
      | _ -> Alcotest.fail "expected one attr");
      let round_trip =
        Mrsl.Telemetry.Json.to_string ~pretty:false
          (Mrsl.Telemetry.Json.Float (1. /. 3.))
      in
      Alcotest.(check bool) "emitter digits parse back exactly" true
        (float_of_string round_trip = 1. /. 3.)

let test_parse_errors () =
  (match
     Response.parse
       {|{"id":4,"ok":false,"error":{"class":"input","code":"serve.bad_tuple","message":"x","context":{}}}|}
   with
  | Ok r ->
      Alcotest.(check bool) "error line is not ok" false r.ok;
      Alcotest.(check (option int)) "error keeps its id" (Some 4) r.id
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "garbage is an error" true
    (Result.is_error (Response.parse "not json"));
  Alcotest.(check bool) "missing ok is an error" true
    (Result.is_error (Response.parse {|{"id":1}|}));
  Alcotest.(check bool) "non-numeric probability is an error" true
    (Result.is_error
       (Response.parse
          {|{"ok":true,"attrs":[{"attr":"a","index":0,"posterior":{"v0":"x"}}]}|}));
  Alcotest.(check (list (pair string (float 0.))))
    "exposition samples"
    [ ("mrsl_cache_hits_total", 12.); ("mrsl_x{quantile=\"0.5\"}", 0.25) ]
    (Response.exposition
       "# HELP x\nmrsl_cache_hits_total 12\nmrsl_x{quantile=\"0.5\"} 0.25\n\n")

let test_self_time () =
  let t = Spans.create () in
  Spans.add t "parent" ~parent:(-1) ~start_ns:0 ~stop_ns:100;
  Spans.add t "child" ~parent:0 ~start_ns:10 ~stop_ns:30;
  Spans.add t "child" ~parent:0 ~start_ns:20 ~stop_ns:50;
  Spans.add t "child" ~parent:0 ~start_ns:90 ~stop_ns:120;
  let self name =
    List.filter_map
      (fun ((s : Spans.span), self) -> if s.name = name then Some self else None)
      (Spans.self_times t)
  in
  Alcotest.(check (list int)) "parent minus covered children" [ 50 ] (self "parent");
  Alcotest.(check (list int)) "leaves keep their duration" [ 20; 30; 30 ]
    (self "child");
  let nested = Spans.create () in
  let sp = Some nested in
  Spans.with_span sp "outer" (fun () -> Spans.with_span sp "inner" ignore);
  match Spans.spans nested with
  | [ inner; outer ] ->
      Alcotest.(check int) "inner's parent is outer" outer.id inner.parent;
      Alcotest.(check int) "outer is a root" (-1) outer.parent
  | _ -> Alcotest.fail "expected two spans"

(* A -> B, both binary: P(A) = (0.3, 0.7), P(B | A=0) = (0.9, 0.1),
   P(B | A=1) = (0.2, 0.8). *)
let two_node () =
  let topo =
    Bayesnet.Topology.make ~names:[| "A"; "B" |] ~cards:[| 2; 2 |]
      ~parents:[| [||]; [| 0 |] |]
  in
  let d = Prob.Dist.of_weights in
  Bayesnet.Network.make topo
    [| [| d [| 0.3; 0.7 |] |]; [| d [| 0.9; 0.1 |]; d [| 0.2; 0.8 |] |] |]

(* The oracle as the benchmark uses it: enumeration of the network for
   the exact posterior, Prob.Divergence.kl against an answer. *)
let test_kl_oracle () =
  let net = two_node () in
  let kl = Prob.Divergence.kl in
  (* P(A | B=1) is proportional to (0.3 * 0.1, 0.7 * 0.8) = (0.03, 0.56). *)
  let exact = Bayesnet.Network.posterior_single net [| None; Some 1 |] 0 in
  Alcotest.check close "P(A=0 | B=1)" (0.03 /. 0.59) (Prob.Dist.prob exact 0);
  Alcotest.check close "P(A=1 | B=1)" (0.56 /. 0.59) (Prob.Dist.prob exact 1);
  let q = Prob.Dist.uniform 2 in
  let by_hand =
    (0.03 /. 0.59 *. log (0.03 /. 0.59 /. 0.5))
    +. (0.56 /. 0.59 *. log (0.56 /. 0.59 /. 0.5))
  in
  Alcotest.check close "KL by hand" by_hand (kl exact q);
  Alcotest.check close "KL of a distribution to itself" 0. (kl exact exact);
  Alcotest.(check bool) "zero where the reference has mass is infinite" true
    (kl exact (Prob.Dist.of_weights [| 1.; 0. |]) = infinity);
  let missing, joint = Bayesnet.Network.posterior_joint net [| None; None |] in
  Alcotest.(check (list int)) "joint over both" [ 0; 1 ] missing;
  (* Mixed-radix order, first attribute slowest. *)
  Alcotest.check close "P(A=0, B=1)" 0.03 (Prob.Dist.prob joint 1);
  Alcotest.check close "P(A=1, B=0)" 0.14 (Prob.Dist.prob joint 2);
  let marg = Oracle.marginals ~cards:[| 2; 2 |] [| [| 0; 1 |]; [| 1; 1 |] |] in
  Alcotest.check close "Laplace-smoothed marginal" 0.25 (Prob.Dist.prob marg.(1) 0);
  let product = Oracle.product ~cards:[| 2; 2 |] marg [ 0; 1 ] in
  Alcotest.check close "product of marginals" (0.5 *. 0.75) (Prob.Dist.prob product 1);
  (* An evidence-blind ensemble misses the dependence of B on A. *)
  Alcotest.(check bool) "marginal baseline diverges" true (kl joint product > 0.);
  let product = Prob.Dist.to_array product in
  Alcotest.(check bool) "valid distribution" true
    (Oracle.valid_dist ~size:4 product);
  Alcotest.(check bool) "wrong size is invalid" false
    (Oracle.valid_dist ~size:3 product)

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
          Alcotest.test_case "zipf sampler" `Quick test_zipf;
          Alcotest.test_case "parse posterior line" `Quick test_parse_posterior;
          Alcotest.test_case "parse error lines" `Quick test_parse_errors;
          Alcotest.test_case "span self time" `Quick test_self_time;
          Alcotest.test_case "kl oracle on two nodes" `Quick test_kl_oracle;
        ] );
    ]
