(* Error paths and boundary conditions across the stack. *)

module Prng = Sa_util.Prng
module Bundle = Sa_val.Bundle
module Valuation = Sa_val.Valuation
module Graph = Sa_graph.Graph
module Weighted = Sa_graph.Weighted
module Ordering = Sa_graph.Ordering
module Simplex = Sa_lp.Simplex
module Model = Sa_lp.Model
module Instance = Sa_core.Instance
module Allocation = Sa_core.Allocation
module Lp = Sa_core.Lp_relaxation
module Rounding = Sa_core.Rounding
module Exact = Sa_core.Exact
module Link = Sa_wireless.Link
module Protocol = Sa_wireless.Protocol

(* ---------- Instance validation ------------------------------------------ *)

let unit_bidders n = Array.make n (Valuation.Xor [ (Bundle.singleton 0, 1.0) ])

let test_instance_validation () =
  let g3 = Graph.create 3 in
  let check msg exn f = Alcotest.check_raises msg exn f in
  check "bidders size" (Invalid_argument "Instance.make: bidders size mismatch")
    (fun () ->
      ignore
        (Instance.make ~conflict:(Instance.Unweighted g3) ~k:1
           ~bidders:(unit_bidders 2) ~ordering:(Ordering.identity 3) ~rho:1.0));
  check "ordering size" (Invalid_argument "Instance.make: ordering size mismatch")
    (fun () ->
      ignore
        (Instance.make ~conflict:(Instance.Unweighted g3) ~k:1
           ~bidders:(unit_bidders 3) ~ordering:(Ordering.identity 2) ~rho:1.0));
  check "bad k" (Invalid_argument "Instance.make: bad k") (fun () ->
      ignore
        (Instance.make ~conflict:(Instance.Unweighted g3) ~k:0
           ~bidders:(unit_bidders 3) ~ordering:(Ordering.identity 3) ~rho:1.0));
  check "rho < 1" (Invalid_argument "Instance.make: rho must be >= 1") (fun () ->
      ignore
        (Instance.make ~conflict:(Instance.Unweighted g3) ~k:1
           ~bidders:(unit_bidders 3) ~ordering:(Ordering.identity 3) ~rho:0.5));
  check "per-channel count"
    (Invalid_argument "Instance.make: Per_channel needs exactly k graphs") (fun () ->
      ignore
        (Instance.make
           ~conflict:(Instance.Per_channel [| Graph.create 3 |])
           ~k:2 ~bidders:(unit_bidders 3) ~ordering:(Ordering.identity 3) ~rho:1.0))

let test_wrong_conflict_type_rejected () =
  let inst =
    Instance.make
      ~conflict:(Instance.Unweighted (Graph.create 2))
      ~k:1 ~bidders:(unit_bidders 2) ~ordering:(Ordering.identity 2) ~rho:1.0
  in
  let frac = Lp.solve_explicit inst in
  let g = Prng.create ~seed:1 in
  Alcotest.check_raises "algorithm2 on unweighted"
    (Invalid_argument "Rounding.algorithm2: wrong conflict structure for this algorithm")
    (fun () -> ignore (Rounding.algorithm2 g inst frac));
  Alcotest.check_raises "asymmetric on unweighted"
    (Invalid_argument
       "Rounding.algorithm_asymmetric: wrong conflict structure for this algorithm")
    (fun () -> ignore (Rounding.algorithm_asymmetric g inst frac))

(* ---------- Degenerate instances ------------------------------------------ *)

let test_single_bidder () =
  let inst =
    Instance.make
      ~conflict:(Instance.Unweighted (Graph.create 1))
      ~k:2
      ~bidders:[| Valuation.Xor [ (Bundle.full 2, 7.0) ] |]
      ~ordering:(Ordering.identity 1) ~rho:1.0
  in
  let frac = Lp.solve_explicit inst in
  Alcotest.(check (float 1e-9)) "LP = 7" 7.0 frac.Lp.objective;
  let e = Exact.solve inst in
  Alcotest.(check (float 1e-9)) "exact = 7" 7.0 e.Exact.value;
  let g = Prng.create ~seed:2 in
  let alloc = Rounding.solve_adaptive ~trials:8 g inst frac in
  Alcotest.(check bool) "feasible" true (Allocation.is_feasible inst alloc)

let test_all_zero_valuations () =
  let inst =
    Instance.make
      ~conflict:(Instance.Unweighted (Graph.clique 4))
      ~k:1
      ~bidders:(Array.make 4 (Valuation.Xor []))
      ~ordering:(Ordering.identity 4) ~rho:1.0
  in
  let frac = Lp.solve_explicit inst in
  Alcotest.(check (float 1e-9)) "LP = 0" 0.0 frac.Lp.objective;
  Alcotest.(check int) "no columns" 0 (Array.length frac.Lp.columns);
  let g = Prng.create ~seed:3 in
  let alloc = Rounding.solve g inst frac in
  Alcotest.(check (float 1e-9)) "welfare 0" 0.0 (Allocation.value inst alloc);
  let e = Exact.solve inst in
  Alcotest.(check (float 1e-9)) "exact 0" 0.0 e.Exact.value

let test_violations_reporting () =
  let graph = Graph.of_edges 3 [ (0, 1) ] in
  let inst =
    Instance.make ~conflict:(Instance.Unweighted graph) ~k:2
      ~bidders:
        (Array.make 3 (Valuation.Xor [ (Bundle.full 2, 1.0) ]))
      ~ordering:(Ordering.identity 3) ~rho:1.0
  in
  let alloc = Allocation.empty 3 in
  alloc.(0) <- Bundle.full 2;
  alloc.(1) <- Bundle.singleton 1;
  let violations = Allocation.violations inst alloc in
  (* channel 1 is shared by adjacent bidders 0 and 1; channel 0 is fine *)
  Alcotest.(check int) "one bad channel" 1 (List.length violations);
  (match violations with
  | [ (channel, holders) ] ->
      Alcotest.(check int) "channel 1" 1 channel;
      Alcotest.(check (list int)) "holders" [ 0; 1 ] (List.sort compare holders)
  | _ -> Alcotest.fail "unexpected violations shape");
  Alcotest.(check bool) "is_feasible false" false (Allocation.is_feasible inst alloc)

let test_exact_budget_exhausted () =
  (* A big dense instance with a tiny node budget: must fall back to greedy
     and report exact = false, while staying feasible. *)
  let g = Prng.create ~seed:5 in
  let graph = Sa_graph.Generators.gnp g ~n:30 ~p:0.3 in
  let bidders =
    Array.init 30 (fun _ ->
        Sa_val.Gen.random_xor g ~k:3 ~bids:3 ~max_bundle:2
          ~dist:(Sa_val.Gen.Uniform (1.0, 5.0)))
  in
  let inst =
    Instance.make ~conflict:(Instance.Unweighted graph) ~k:3 ~bidders
      ~ordering:(Ordering.identity 30) ~rho:5.0
  in
  let r = Exact.solve ~node_limit:50 inst in
  Alcotest.(check bool) "budget exhausted" false r.Exact.exact;
  Alcotest.(check bool) "still feasible" true (Allocation.is_feasible inst r.Exact.allocation);
  Alcotest.(check bool) "still positive" true (r.Exact.value > 0.0)

(* ---------- Simplex boundary cases ----------------------------------------- *)

(* Each case runs on the revised simplex and on the test-side tableau. *)
let engines =
  [
    ("revised", fun ?max_iters p -> Sa_lp.Revised.solve ?max_iters p);
    ("tableau", fun ?max_iters p -> Dense_tableau.solve ?max_iters p);
  ]

let on_engines f = List.iter (fun (name, solve) -> f name solve) engines

let test_simplex_iteration_limit () =
  let p =
    {
      Simplex.direction = Simplex.Maximize;
      c = [| 1.0; 1.0 |];
      rows = [| ([| 1.0; 1.0 |], Simplex.Le, 10.0); ([| 1.0; 0.0 |], Simplex.Le, 5.0) |];
    }
  in
  on_engines (fun name solve ->
      let s = solve ~max_iters:1 p in
      Alcotest.(check bool) (name ^ " hits iteration limit") true
        (s.Simplex.status = Simplex.Iteration_limit))

let test_simplex_empty_objective () =
  (* all-zero objective: optimal trivially, value 0 *)
  let p =
    {
      Simplex.direction = Simplex.Maximize;
      c = [| 0.0 |];
      rows = [| ([| 1.0 |], Simplex.Le, 1.0) |];
    }
  in
  on_engines (fun name solve ->
      let s = solve p in
      Alcotest.(check bool) (name ^ " optimal") true (s.Simplex.status = Simplex.Optimal);
      Alcotest.(check (float 1e-12)) (name ^ " zero") 0.0 s.Simplex.objective)

let test_simplex_equality_infeasible () =
  let p =
    {
      Simplex.direction = Simplex.Maximize;
      c = [| 1.0 |];
      rows = [| ([| 1.0 |], Simplex.Eq, 2.0); ([| 1.0 |], Simplex.Eq, 3.0) |];
    }
  in
  on_engines (fun name solve ->
      let s = solve p in
      Alcotest.(check bool) (name ^ " infeasible") true
        (s.Simplex.status = Simplex.Infeasible))

let test_model_row_bounds () =
  let m = Model.create Simplex.Maximize in
  let x = Model.add_var m ~obj:1.0 in
  Alcotest.check_raises "row out of range"
    (Invalid_argument "Model.add_to_row: row out of range") (fun () ->
      Model.add_to_row m 0 x 1.0);
  Alcotest.check_raises "var out of range"
    (Invalid_argument "Model: variable out of range") (fun () ->
      ignore (Model.add_row m [ (99, 1.0) ] Simplex.Le 1.0))

(* ---------- Wireless boundary cases ----------------------------------------- *)

let test_protocol_delta_validation () =
  let sys =
    Link.of_point_pairs
      [| (Sa_geom.Point.make 0.0 0.0, Sa_geom.Point.make 1.0 0.0) |]
  in
  Alcotest.check_raises "delta 0"
    (Invalid_argument "Protocol.conflict_graph: delta must be positive") (fun () ->
      ignore (Protocol.conflict_graph sys ~delta:0.0))

let test_link_validation () =
  let m = Sa_geom.Metric.of_points [| Sa_geom.Point.make 0.0 0.0; Sa_geom.Point.make 1.0 0.0 |] in
  Alcotest.check_raises "sender = receiver"
    (Invalid_argument "Link.make: sender = receiver") (fun () ->
      ignore (Link.make m [| { Link.sender = 0; receiver = 0 } |]));
  Alcotest.check_raises "endpoint outside"
    (Invalid_argument "Link.make: endpoint outside the metric") (fun () ->
      ignore (Link.make m [| { Link.sender = 0; receiver = 5 } |]))

let test_weighted_negative_rejected () =
  let wg = Weighted.create 2 in
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Weighted.set: negative weight") (fun () ->
      Weighted.set wg 0 1 (-0.5))

(* ---------- round_with_uniforms -------------------------------------------- *)

let test_round_with_uniforms_extremes () =
  let graph = Graph.of_edges 3 [ (0, 1) ] in
  let inst =
    Instance.make ~conflict:(Instance.Unweighted graph) ~k:1
      ~bidders:(Array.make 3 (Valuation.Xor [ (Bundle.singleton 0, 2.0) ]))
      ~ordering:(Ordering.identity 3) ~rho:1.0
  in
  let frac = Lp.solve_explicit inst in
  (* uniforms at ~1: nobody selected *)
  let none =
    Rounding.round_with_uniforms inst frac ~scale_down:2.0
      ~uniforms:[| 0.999; 0.999; 0.999 |]
  in
  Alcotest.(check int) "nobody wins" 0 (List.length (Allocation.allocated_bidders none));
  (* uniforms at 0 with scale 1: everyone with x=1 tentatively selected;
     conflict resolution drops the later of 0-1 *)
  let all =
    Rounding.round_with_uniforms inst frac ~scale_down:1.0 ~uniforms:[| 0.0; 0.0; 0.0 |]
  in
  Alcotest.(check bool) "feasible" true (Allocation.is_feasible inst all);
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Rounding.round_with_uniforms: uniforms shorter than n")
    (fun () ->
      ignore (Rounding.round_with_uniforms inst frac ~scale_down:1.0 ~uniforms:[| 0.0 |]))

let test_poisson () =
  let g = Prng.create ~seed:21 in
  let n = 20_000 in
  let total = ref 0 in
  for _ = 1 to n do
    total := !total + Prng.poisson g 3.0
  done;
  let mean = float_of_int !total /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "mean %.3f near 3" mean) true
    (Float.abs (mean -. 3.0) < 0.1);
  Alcotest.check_raises "bad lambda"
    (Invalid_argument "Prng.poisson: lambda must be positive") (fun () ->
      ignore (Prng.poisson g 0.0))

let suite =
  [
    Alcotest.test_case "instance validation" `Quick test_instance_validation;
    Alcotest.test_case "wrong conflict type rejected" `Quick test_wrong_conflict_type_rejected;
    Alcotest.test_case "single bidder" `Quick test_single_bidder;
    Alcotest.test_case "all-zero valuations" `Quick test_all_zero_valuations;
    Alcotest.test_case "violations reporting" `Quick test_violations_reporting;
    Alcotest.test_case "exact budget exhaustion fallback" `Quick test_exact_budget_exhausted;
    Alcotest.test_case "simplex iteration limit" `Quick test_simplex_iteration_limit;
    Alcotest.test_case "simplex zero objective" `Quick test_simplex_empty_objective;
    Alcotest.test_case "simplex conflicting equalities" `Quick test_simplex_equality_infeasible;
    Alcotest.test_case "model bound checks" `Quick test_model_row_bounds;
    Alcotest.test_case "protocol delta validation" `Quick test_protocol_delta_validation;
    Alcotest.test_case "link validation" `Quick test_link_validation;
    Alcotest.test_case "negative weights rejected" `Quick test_weighted_negative_rejected;
    Alcotest.test_case "round_with_uniforms extremes" `Quick test_round_with_uniforms_extremes;
    Alcotest.test_case "poisson sampler" `Quick test_poisson;
  ]
