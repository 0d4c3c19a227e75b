(* Tests for the multicore rounding path: Rounding.solve_par fans its
   trials over the domain pool with one PRNG stream per trial. *)

module Instance = Sa_core.Instance
module Allocation = Sa_core.Allocation
module Lp = Sa_core.Lp_relaxation
module Rounding = Sa_core.Rounding
module Workloads = Sa_exp.Workloads

let fixture seed = Workloads.protocol_instance ~seed ~n:12 ~k:2 ()

let weighted_fixture seed =
  fst
    (Workloads.sinr_fixed_instance ~seed ~n:10 ~k:2
       ~scheme:Sa_wireless.Sinr.Uniform ())

let test_parallel_rounding_feasible () =
  List.iter
    (fun (what, inst) ->
      let frac = Lp.solve_explicit inst in
      List.iter
        (fun domains ->
          let alloc = Rounding.solve_par ~domains ~trials:6 ~seed:5 inst frac in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %d domains feasible" what domains)
            true
            (Allocation.is_feasible inst alloc);
          Alcotest.(check bool) (what ^ ": below LP") true
            (Allocation.value inst alloc <= frac.Lp.objective +. 1e-6))
        [ 1; 2; 4 ])
    [ ("unweighted", fixture 1); ("edge-weighted", weighted_fixture 1) ]

let test_parallel_rounding_deterministic () =
  List.iter
    (fun (what, inst) ->
      let frac = Lp.solve_explicit inst in
      let a = Rounding.solve_par ~domains:3 ~trials:6 ~seed:7 inst frac in
      let b = Rounding.solve_par ~domains:3 ~trials:6 ~seed:7 inst frac in
      let c = Rounding.solve_par ~domains:1 ~trials:6 ~seed:7 inst frac in
      Alcotest.(check bool) (what ^ ": same allocation across runs") true (a = b);
      Alcotest.(check bool) (what ^ ": same allocation at 1 domain") true (a = c))
    [ ("unweighted", fixture 2); ("edge-weighted", weighted_fixture 2) ]

let test_parallel_validation () =
  let inst = fixture 4 in
  let frac = Lp.solve_explicit inst in
  Alcotest.check_raises "bad trials"
    (Invalid_argument "Rounding.solve_par: trials must be >= 1") (fun () ->
      ignore (Rounding.solve_par ~trials:0 ~seed:1 inst frac));
  Alcotest.check_raises "bad domains"
    (Invalid_argument "Pool.map_array: domains must be >= 1") (fun () ->
      ignore (Rounding.solve_par ~domains:0 ~seed:1 inst frac));
  Alcotest.check_raises "bad chunk"
    (Invalid_argument "Pool.map_array: chunk must be >= 1") (fun () ->
      ignore (Rounding.solve_par ~domains:2 ~chunk:0 ~seed:1 inst frac))

let suite =
  [
    Alcotest.test_case "parallel rounding feasible" `Quick test_parallel_rounding_feasible;
    Alcotest.test_case "parallel rounding deterministic" `Quick test_parallel_rounding_deterministic;
    Alcotest.test_case "parallel validation" `Quick test_parallel_validation;
  ]
