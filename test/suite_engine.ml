(* Tests for the batch engine: warm-start correctness (simplex, LP layer,
   engine layer), the topology and basis caches, workload files, and the
   generic parallel map the sharding is built on. *)

module Prng = Sa_util.Prng
module Floats = Sa_util.Floats
module Simplex = Sa_lp.Simplex
module Revised = Sa_lp.Revised
module Certify = Sa_lp.Certify
module Instance = Sa_core.Instance
module Allocation = Sa_core.Allocation
module Lp = Sa_core.Lp_relaxation
module Pool = Sa_core.Pool
module Serialize = Sa_core.Serialize
module Workloads = Sa_exp.Workloads
module Engine = Sa_engine.Engine
module Workload = Sa_engine.Workload

(* ---------- warm start: revised simplex level ---------------------------- *)

let random_packing_lp g ~nv ~nr =
  let c = Array.init nv (fun _ -> 1.0 +. Prng.float g 9.0) in
  let rows =
    Array.init nr (fun _ ->
        ( Array.init nv (fun _ -> Prng.float g 3.0),
          Simplex.Le,
          1.0 +. Prng.float g 5.0 ))
  in
  { Simplex.direction = Simplex.Maximize; c; rows }

let test_warm_basis_same_objective_certified () =
  (* Solving a perturbed-objective LP from the previous optimum's basis must
     give the same optimum as a cold solve, and both solutions must carry an
     independent optimality certificate. *)
  for seed = 1 to 12 do
    let g = Prng.create ~seed in
    let p = random_packing_lp g ~nv:8 ~nr:5 in
    let _, basis, _ = Revised.solve_warm p in
    let basis =
      match basis with
      | Some b -> b
      | None -> Alcotest.failf "seed %d: cold solve returned no basis" seed
    in
    (* same shape, new objective: the warm start's use case *)
    let p' = { p with Simplex.c = Array.map (fun v -> v *. Prng.uniform_in g 0.5 1.5) p.Simplex.c } in
    let cold, _, cold_stats = Revised.solve_warm p' in
    let warm, _, warm_stats = Revised.solve_warm ~warm_start:basis p' in
    Alcotest.(check bool) "warm basis accepted" true warm_stats.Revised.warm_used;
    if not (Floats.approx_eq ~eps:1e-6 cold.Simplex.objective warm.Simplex.objective)
    then
      Alcotest.failf "seed %d: cold %.9f <> warm %.9f" seed cold.Simplex.objective
        warm.Simplex.objective;
    let certify what sol =
      let report = Certify.check p' sol in
      if not report.Certify.certified then
        Alcotest.failf "seed %d: %s solution not certified" seed what
    in
    certify "cold" cold;
    certify "warm" warm;
    ignore cold_stats
  done

let test_warm_basis_garbage_degrades_to_cold () =
  let g = Prng.create ~seed:99 in
  let p = random_packing_lp g ~nv:6 ~nr:4 in
  let cold, _, _ = Revised.solve_warm p in
  List.iter
    (fun (what, bogus) ->
      let warm, _, stats = Revised.solve_warm ~warm_start:bogus p in
      Alcotest.(check bool) (what ^ " rejected") false stats.Revised.warm_used;
      Alcotest.(check (float 1e-9)) (what ^ " objective unchanged")
        cold.Simplex.objective warm.Simplex.objective)
    [
      ("wrong length", [| 0 |]);
      ("out of range", [| 999; 998; 997; 996 |]);
      ("duplicate", [| 0; 0; 1; 2 |]);
    ]

(* ---------- warm start: auction LP level --------------------------------- *)

let test_warm_lp_matches_cold () =
  (* Cold-solve an instance, revalue its bids (same shape fingerprint), then
     solve the revalued LP cold and from the cached basis: objectives agree
     with each other and with the dense tableau reference within the
     project tolerance, and both solutions satisfy the LP. *)
  for seed = 1 to 6 do
    let inst = Workloads.protocol_instance ~seed ~n:14 ~k:3 () in
    let _, stats0 = Lp.solve_explicit_stats inst in
    let basis =
      match stats0.Lp.basis with
      | Some b -> b
      | None -> Alcotest.failf "seed %d: no basis from cold solve" seed
    in
    let jittered = Workload.revalue ~seed:(seed + 100) inst in
    Alcotest.(check string) "revalue keeps shape"
      (Serialize.shape_fingerprint inst)
      (Serialize.shape_fingerprint jittered);
    let cold, _ = Lp.solve_explicit_stats jittered in
    let warm, wstats = Lp.solve_explicit_stats ~warm_start:basis jittered in
    Alcotest.(check bool) "warm start used" true wstats.Lp.warm_start_used;
    if not (Floats.approx_eq cold.Lp.objective warm.Lp.objective) then
      Alcotest.failf "seed %d: cold %.9f <> warm %.9f" seed cold.Lp.objective
        warm.Lp.objective;
    let reference =
      Dense_tableau.solve (Dense_tableau.problem_of_model (fst (Lp.stage jittered)))
    in
    if not (Floats.approx_eq reference.Simplex.objective cold.Lp.objective) then
      Alcotest.failf "seed %d: tableau %.9f <> revised %.9f" seed
        reference.Simplex.objective cold.Lp.objective;
    Alcotest.(check bool) "cold LP-feasible" true (Lp.is_lp_feasible jittered cold);
    Alcotest.(check bool) "warm LP-feasible" true (Lp.is_lp_feasible jittered warm)
  done

(* ---------- engine caches ------------------------------------------------ *)

let test_engine_warm_hits_and_objective () =
  let specs = [ Workload.spec ~model:Workload.Protocol ~n:14 ~k:3 ~seed:4 ~repeat:5 () ] in
  let warm_engine = Engine.create ~warm_start:true () in
  let jobs = Workload.expand warm_engine specs in
  let warm_results, warm_summary = Engine.run_batch warm_engine jobs in
  let cold_engine = Engine.create ~warm_start:false () in
  let cold_results, cold_summary =
    Engine.run_batch cold_engine (Workload.expand cold_engine specs)
  in
  (* first job of a fresh shape is necessarily cold; the repeats must hit *)
  Alcotest.(check bool) "job 0 cold" false warm_results.(0).Engine.warm_start;
  for i = 1 to Array.length warm_results - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "job %d warm" i)
      true warm_results.(i).Engine.warm_start
  done;
  Alcotest.(check int) "summary counts the hits" 4 warm_summary.Engine.warm_hits;
  Alcotest.(check int) "cold run has none" 0 cold_summary.Engine.warm_hits;
  Alcotest.(check int) "one cached basis" 1 warm_summary.Engine.basis_entries;
  (* warm or cold, each job's LP optimum is the same *)
  Array.iteri
    (fun i w ->
      if not (Floats.approx_eq w.Engine.lp_objective cold_results.(i).Engine.lp_objective)
      then
        Alcotest.failf "job %d: warm lp %.9f <> cold lp %.9f" i w.Engine.lp_objective
          cold_results.(i).Engine.lp_objective)
    warm_results;
  (* warm runs must not pay more pivots overall than cold runs *)
  Alcotest.(check bool) "warm pivots <= cold pivots" true
    (warm_summary.Engine.lp_iterations <= cold_summary.Engine.lp_iterations)

let test_topology_cache_reuses () =
  let engine = Engine.create () in
  let inst = Workloads.protocol_instance ~seed:7 ~n:12 ~k:2 () in
  let t1 = Engine.topology_of_conflict engine inst.Instance.conflict in
  let t2 = Engine.topology_of_conflict engine inst.Instance.conflict in
  Alcotest.(check bool) "second lookup returns the cached record" true (t1 == t2);
  let prepared =
    Engine.prepare engine ~conflict:inst.Instance.conflict ~k:inst.Instance.k
      inst.Instance.bidders
  in
  Alcotest.(check (float 1e-12)) "prepare reuses cached rho" t1.Engine.rho
    prepared.Instance.rho

let test_job_validation () =
  let inst = Workloads.protocol_instance ~seed:1 ~n:6 ~k:2 () in
  Alcotest.check_raises "trials >= 1"
    (Invalid_argument "Engine.job: trials must be >= 1") (fun () ->
      ignore (Engine.job ~trials:0 ~id:0 inst))

let test_summary_json_well_formed () =
  let engine = Engine.create () in
  let jobs = Workload.expand engine Workload.demo in
  let _, summary = Engine.run_batch engine jobs in
  let json = Engine.summary_to_json summary in
  List.iter
    (fun key ->
      let needle = Printf.sprintf "\"%s\":" key in
      let found =
        let nl = String.length needle and jl = String.length json in
        let rec scan i = i + nl <= jl && (String.sub json i nl = needle || scan (i + 1)) in
        scan 0
      in
      Alcotest.(check bool) (key ^ " present") true found)
    [
      "jobs"; "total_welfare"; "total_lp_objective"; "lp_iterations"; "warm_hits";
      "lp_seconds"; "round_seconds"; "wall_seconds"; "topology_hits";
      "topology_misses"; "basis_entries";
    ]

(* ---------- workload files ----------------------------------------------- *)

let test_workload_round_trip () =
  let specs = Workload.demo in
  let back = Workload.of_string (Workload.to_string specs) in
  Alcotest.(check bool) "specs survive the file format" true (back = specs)

let test_workload_rejects_malformed () =
  (* every malformed input is a structured [Malformed_job] naming its line *)
  let rejected what text ~line =
    match Workload.of_string text with
    | exception Sa_util.Fail.Error (Sa_util.Fail.Malformed_job { detail }) ->
        let prefix = Printf.sprintf "line %d: " line in
        if not (String.starts_with ~prefix detail) then
          Alcotest.failf "%s: detail %S does not start with %S" what detail prefix
    | _ -> Alcotest.failf "%s: malformed input accepted" what
  in
  rejected "bad header" "nonsense 1\nend\n" ~line:1;
  rejected "empty input" "" ~line:1;
  rejected "comments only" "# nothing here\n" ~line:2;
  rejected "missing end" "specauction-workload 1\n" ~line:2;
  rejected "bad model" "specauction-workload 1\nbatch model=cubic n=4 k=2\nend\n" ~line:2;
  rejected "missing n" "specauction-workload 1\nbatch model=protocol k=2\nend\n" ~line:2;
  rejected "missing k" "specauction-workload 1\n\nbatch foo=bar\nend\n" ~line:3;
  (* parsed numbers outside the range [Workload.spec] accepts *)
  let batch line = "specauction-workload 1\n# comment\nbatch " ^ line ^ "\nend\n" in
  rejected "negative n" (batch "model=sinr n=-1 k=3") ~line:3;
  rejected "zero n" (batch "model=protocol n=0 k=3") ~line:3;
  rejected "zero k" (batch "model=sinr n=8 k=0") ~line:3;
  rejected "k above Bundle.max_channels" (batch "model=protocol n=8 k=70 seed=1") ~line:3;
  rejected "zero trials" (batch "model=protocol n=8 k=2 trials=0") ~line:3;
  rejected "zero repeat" (batch "model=protocol n=8 k=2 repeat=0") ~line:3;
  rejected "negative repeat" (batch "model=random n=8 k=2 repeat=-4") ~line:3

(* ---------- Pool.map_array ------------------------------------------- *)

let test_map_array_matches_sequential () =
  let arr = Array.init 23 (fun i -> i) in
  let f i = (i * i) + 1 in
  let expected = Array.map f arr in
  List.iter
    (fun domains ->
      Alcotest.(check (array int))
        (Printf.sprintf "%d domains" domains)
        expected
        (Pool.map_array ~domains f arr))
    [ 1; 2; 3; 7; 64 ];
  Alcotest.(check (array int)) "empty input" [||] (Pool.map_array ~domains:4 f [||]);
  Alcotest.check_raises "domains >= 1"
    (Invalid_argument "Pool.map_array: domains must be >= 1") (fun () ->
      ignore (Pool.map_array ~domains:0 f arr))

(* ---------- registration ------------------------------------------------- *)

let suite =
  [
    Alcotest.test_case "warm basis: same objective, both certified" `Quick
      test_warm_basis_same_objective_certified;
    Alcotest.test_case "warm basis: garbage degrades to cold" `Quick
      test_warm_basis_garbage_degrades_to_cold;
    Alcotest.test_case "auction LP: warm = cold within tolerance" `Quick
      test_warm_lp_matches_cold;
    Alcotest.test_case "engine: warm hits and equal LP optima" `Quick
      test_engine_warm_hits_and_objective;
    Alcotest.test_case "engine: topology cache reuses" `Quick test_topology_cache_reuses;
    Alcotest.test_case "engine: job validation" `Quick test_job_validation;
    Alcotest.test_case "engine: summary JSON well-formed" `Quick
      test_summary_json_well_formed;
    Alcotest.test_case "workload: file round-trip" `Quick test_workload_round_trip;
    Alcotest.test_case "workload: malformed input rejected" `Quick
      test_workload_rejects_malformed;
    Alcotest.test_case "parallel: map_array = Array.map" `Quick
      test_map_array_matches_sequential;
  ]
