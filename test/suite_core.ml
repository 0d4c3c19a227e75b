(* Integration tests for the core auction pipeline: LP relaxation, rounding
   algorithms, demand-oracle column generation, exact solver, baselines. *)

module Prng = Sa_util.Prng
module Bundle = Sa_val.Bundle
module Valuation = Sa_val.Valuation
module Vgen = Sa_val.Gen
module Graph = Sa_graph.Graph
module Ordering = Sa_graph.Ordering
module Generators = Sa_graph.Generators
module Inductive = Sa_graph.Inductive
module Instance = Sa_core.Instance
module Allocation = Sa_core.Allocation
module Lp = Sa_core.Lp_relaxation
module Rounding = Sa_core.Rounding
module Oracle = Sa_core.Oracle_solver
module Exact = Sa_core.Exact
module Greedy = Sa_core.Greedy
module Edge_lp = Sa_core.Edge_lp
module Hardness = Sa_core.Hardness
module Workloads = Sa_exp.Workloads
module Simplex = Sa_lp.Simplex

(* ---------- fixtures ---------------------------------------------------- *)

(* A small random unweighted instance with XOR bidders on a bounded-degree
   graph, using the degeneracy ordering. *)
let random_unweighted_instance ~seed ~n ~k ~d =
  let g = Prng.create ~seed in
  let graph = Generators.random_bounded_degree g ~n ~d in
  let pi, degeneracy = Inductive.degeneracy_ordering graph in
  let bidders =
    Array.init n (fun _ ->
        Vgen.random_xor g ~k ~bids:3 ~max_bundle:(min 3 k)
          ~dist:(Vgen.Uniform (1.0, 10.0)))
  in
  Instance.make ~conflict:(Instance.Unweighted graph) ~k ~bidders ~ordering:pi
    ~rho:(float_of_int (max 1 degeneracy))

(* A small edge-weighted instance with random weights. *)
let random_weighted_instance ~seed ~n ~k =
  let g = Prng.create ~seed in
  let wg = Generators.random_weighted g ~n ~density:0.4 ~scale:0.6 in
  let pi = Ordering.identity n in
  let rho_est = (Inductive.rho_weighted wg pi).Inductive.rho in
  let bidders =
    Array.init n (fun _ ->
        Vgen.random_xor g ~k ~bids:3 ~max_bundle:(min 3 k)
          ~dist:(Vgen.Uniform (1.0, 10.0)))
  in
  Instance.make ~conflict:(Instance.Edge_weighted wg) ~k ~bidders ~ordering:pi
    ~rho:(Float.max 1.0 rho_est)

(* ---------- LP relaxation ----------------------------------------------- *)

let test_lemma1 () =
  (* Any feasible allocation, injected as a 0/1 vector, satisfies the LP. *)
  let inst = random_unweighted_instance ~seed:42 ~n:14 ~k:3 ~d:4 in
  let exact = Exact.solve inst in
  Alcotest.(check bool) "exact solver finished" true exact.Exact.exact;
  Alcotest.(check bool)
    "optimal allocation is feasible" true
    (Allocation.is_feasible inst exact.Exact.allocation);
  let point = Lp.of_allocation inst exact.Exact.allocation in
  Alcotest.(check bool) "Lemma 1: integral point is LP-feasible" true
    (Lp.is_lp_feasible inst point)

let test_lp_upper_bounds_opt () =
  let inst = random_unweighted_instance ~seed:7 ~n:12 ~k:2 ~d:3 in
  let frac = Lp.solve_explicit inst in
  let exact = Exact.solve inst in
  Alcotest.(check bool) "LP optimum >= integral optimum" true
    (frac.Lp.objective >= exact.Exact.value -. 1e-6)

let test_lp_solution_feasible () =
  let inst = random_unweighted_instance ~seed:11 ~n:16 ~k:4 ~d:4 in
  let frac = Lp.solve_explicit inst in
  Alcotest.(check bool) "LP optimum satisfies its own constraints" true
    (Lp.is_lp_feasible inst frac)

let test_lp_zeroed_bidder () =
  let inst = random_unweighted_instance ~seed:3 ~n:10 ~k:2 ~d:3 in
  let full = Lp.solve_explicit inst in
  let without0 = Lp.solve_explicit ~zeroed:[ 0 ] inst in
  Alcotest.(check bool) "removing a bidder cannot raise the optimum" true
    (without0.Lp.objective <= full.Lp.objective +. 1e-6)

(* The revised simplex (every production LP) against the test-side dense
   tableau on the LP [Lp.stage] builds: disk, protocol, edge-weighted SINR,
   per-channel and bounded-degree instances, with and without zeroed
   bidders.  The objectives agree within [Tol.cert_eps], both solutions
   certify, and the columns [Lp.solve_explicit] reports satisfy the LP.
   (Values can differ at degenerate vertices; objectives cannot.) *)
let prop_lp_engines_agree =
  QCheck.Test.make ~name:"LP engines agree on auction LPs" ~count:80
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let g = Prng.create ~seed in
      let n = 3 + Prng.int g 10 and k = 1 + Prng.int g 3 in
      let what, inst =
        match seed mod 5 with
        | 0 -> ("disk", Workloads.disk_instance ~seed ~n ~k ())
        | 1 -> ("protocol", Workloads.protocol_instance ~seed ~n ~k ())
        | 2 ->
            ( "sinr",
              fst
                (Workloads.sinr_fixed_instance ~seed ~n ~k
                   ~scheme:Sa_wireless.Sinr.Uniform ()) )
        | 3 ->
            let graphs = Array.init k (fun _ -> Generators.gnp g ~n ~p:0.3) in
            let bidders = Workloads.bidders g ~n ~k ~profile:Workloads.Mixed in
            ( "per-channel",
              Instance.make ~conflict:(Instance.Per_channel graphs) ~k ~bidders
                ~ordering:(Ordering.of_order (Prng.permutation g n))
                ~rho:(1.0 +. Prng.float g 2.0) )
        | _ -> ("bounded-degree", random_unweighted_instance ~seed ~n ~k ~d:4)
      in
      let zeroed =
        if Prng.bool g then
          List.filter (fun _ -> Prng.float g 1.0 < 0.3) (List.init n Fun.id)
        else []
      in
      let m, _ = Lp.stage ~zeroed inst in
      let p = Dense_tableau.problem_of_model m in
      let dense = Dense_tableau.solve p in
      let revised =
        let r = Sa_lp.Model.solve m in
        {
          Simplex.status = r.Sa_lp.Model.status;
          x = Array.init (Sa_lp.Model.num_vars m) r.Sa_lp.Model.value;
          objective = r.Sa_lp.Model.objective;
          duals = Array.init (Sa_lp.Model.num_rows m) r.Sa_lp.Model.dual;
        }
      in
      let frac = Lp.solve_explicit ~zeroed inst in
      let fail fmt = QCheck.Test.fail_reportf ("%s seed %d: " ^^ fmt) what seed in
      let certified s = (Sa_lp.Certify.check p s).Sa_lp.Certify.certified in
      if dense.Simplex.status <> Simplex.Optimal then fail "tableau not optimal";
      if Float.abs (dense.Simplex.objective -. frac.Lp.objective)
         > Sa_lp.Tol.cert_eps *. (1.0 +. Float.abs dense.Simplex.objective)
      then fail "tableau %.9g vs revised %.9g" dense.Simplex.objective frac.Lp.objective;
      if revised.Simplex.objective <> frac.Lp.objective then
        fail "Model.solve %h vs solve_explicit %h" revised.Simplex.objective
          frac.Lp.objective;
      if not (certified dense) then fail "tableau solution not certified";
      if not (certified revised) then fail "revised solution not certified";
      if not (Lp.is_lp_feasible inst frac) then fail "revised solution LP-infeasible";
      true)

let test_lp_scale () =
  let inst = random_unweighted_instance ~seed:5 ~n:10 ~k:2 ~d:3 in
  let frac = Lp.solve_explicit inst in
  let half = Lp.scale frac 0.5 in
  Alcotest.(check (float 1e-9)) "objective halves" (frac.Lp.objective /. 2.0)
    half.Lp.objective;
  Alcotest.(check bool) "scaled point stays feasible (Observation 2)" true
    (Lp.is_lp_feasible inst half)

(* ---------- Algorithm 1 -------------------------------------------------- *)

let test_algorithm1_feasible () =
  let inst = random_unweighted_instance ~seed:19 ~n:20 ~k:4 ~d:5 in
  let frac = Lp.solve_explicit inst in
  let g = Prng.create ~seed:100 in
  for _ = 1 to 30 do
    let alloc = Rounding.algorithm1 g inst frac in
    if not (Allocation.is_feasible inst alloc) then
      Alcotest.failf "algorithm1 produced an infeasible allocation"
  done

let test_algorithm1_expectation () =
  (* Theorem 3: E[value] >= b*/8√k·ρ.  Empirical mean over many runs should
     clear half the bound comfortably. *)
  let inst = random_unweighted_instance ~seed:23 ~n:20 ~k:4 ~d:4 in
  let frac = Lp.solve_explicit inst in
  let g = Prng.create ~seed:7 in
  let runs = 300 in
  let total = ref 0.0 in
  for _ = 1 to runs do
    total := !total +. Allocation.value inst (Rounding.algorithm1 g inst frac)
  done;
  let mean = !total /. float_of_int runs in
  let bound = frac.Lp.objective /. Rounding.guarantee inst in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.3f >= 0.5 * bound %.3f" mean bound)
    true
    (mean >= 0.5 *. bound)

let test_solve_never_worse_than_bound_needed () =
  let inst = random_unweighted_instance ~seed:31 ~n:18 ~k:2 ~d:4 in
  let frac = Lp.solve_explicit inst in
  let g = Prng.create ~seed:8 in
  let alloc = Rounding.solve ~trials:16 g inst frac in
  Alcotest.(check bool) "feasible" true (Allocation.is_feasible inst alloc);
  Alcotest.(check bool) "value below LP optimum" true
    (Allocation.value inst alloc <= frac.Lp.objective +. 1e-6)

(* ---------- Algorithms 2 + 3 --------------------------------------------- *)

let test_algorithm2_partly_feasible () =
  let inst = random_weighted_instance ~seed:13 ~n:16 ~k:3 in
  let frac = Lp.solve_explicit inst in
  let g = Prng.create ~seed:55 in
  for _ = 1 to 30 do
    let partly = Rounding.algorithm2 g inst frac in
    if not (Rounding.is_partly_feasible inst partly) then
      Alcotest.failf "algorithm2 violated Condition (5)"
  done

let test_algorithm3_feasible () =
  let inst = random_weighted_instance ~seed:17 ~n:16 ~k:3 in
  let frac = Lp.solve_explicit inst in
  let g = Prng.create ~seed:56 in
  for _ = 1 to 30 do
    let partly = Rounding.algorithm2 g inst frac in
    let final = Rounding.algorithm3 inst partly in
    if not (Allocation.is_feasible inst final) then
      Alcotest.failf "algorithm3 output infeasible";
    (* Algorithm 3 only ever removes vertices. *)
    Array.iteri
      (fun v b ->
        if not (Bundle.is_empty b) then
          Alcotest.(check bool) "subset of input" true (Bundle.equal b partly.(v)))
      final
  done

let test_algorithm3_value_bound () =
  (* Lemma 8: the output keeps at least 1/log2 n of the partly feasible
     value. *)
  let inst = random_weighted_instance ~seed:29 ~n:20 ~k:2 in
  let frac = Lp.solve_explicit inst in
  let g = Prng.create ~seed:57 in
  let logn = Sa_util.Floats.log2n (Instance.n inst) in
  for _ = 1 to 20 do
    let partly = Rounding.algorithm2 g inst frac in
    let final = Rounding.algorithm3 inst partly in
    let pv = Allocation.value inst partly and fv = Allocation.value inst final in
    if fv < (pv /. logn) -. 1e-9 then
      Alcotest.failf "algorithm3 kept %.4f < %.4f/log n" fv pv
  done

(* ---------- Oracle solver ------------------------------------------------ *)

let test_oracle_matches_explicit_xor () =
  let inst = random_unweighted_instance ~seed:37 ~n:14 ~k:3 ~d:4 in
  let explicit = Lp.solve_explicit inst in
  let oracle, stats = Oracle.solve inst in
  Alcotest.(check bool)
    (Printf.sprintf "oracle %.6f vs explicit %.6f (cols %d)"
       oracle.Lp.objective explicit.Lp.objective stats.Oracle.columns_generated)
    true
    (Float.abs (oracle.Lp.objective -. explicit.Lp.objective) < 1e-5);
  Alcotest.(check bool) "oracle solution LP-feasible" true
    (Lp.is_lp_feasible inst oracle)

let test_oracle_matches_explicit_mixed () =
  (* Non-XOR bidders: explicit enumeration vs column generation. *)
  let seed = 41 in
  let g = Prng.create ~seed in
  let n = 10 and k = 3 in
  let graph = Generators.random_bounded_degree g ~n ~d:3 in
  let pi, degeneracy = Inductive.degeneracy_ordering graph in
  let bidders =
    Array.init n (fun _ -> Vgen.random_mixed g ~k ~dist:(Vgen.Uniform (1.0, 5.0)))
  in
  let inst =
    Instance.make ~conflict:(Instance.Unweighted graph) ~k ~bidders ~ordering:pi
      ~rho:(float_of_int (max 1 degeneracy))
  in
  let explicit = Lp.solve_explicit inst in
  let oracle, _ = Oracle.solve inst in
  Alcotest.(check bool)
    (Printf.sprintf "oracle %.6f vs explicit %.6f" oracle.Lp.objective
       explicit.Lp.objective)
    true
    (Float.abs (oracle.Lp.objective -. explicit.Lp.objective) < 1e-4)

let test_oracle_weighted () =
  let inst = random_weighted_instance ~seed:43 ~n:12 ~k:2 in
  let explicit = Lp.solve_explicit inst in
  let oracle, _ = Oracle.solve inst in
  Alcotest.(check bool)
    (Printf.sprintf "oracle %.6f vs explicit %.6f" oracle.Lp.objective
       explicit.Lp.objective)
    true
    (Float.abs (oracle.Lp.objective -. explicit.Lp.objective) < 1e-4)

(* Colgen reads its prices only through [Oracle.Price_table], whose updates
   recompute just the entries with a moved dual.  A table carried across a
   sequence of dual vectors (incremental) must match, bit for bit, a fresh
   table filled from scratch at every step (naive).  Fanning the demand
   oracles across domains merges the answers in bidder order, so the whole
   column-generation trajectory — objective, rounds, generated columns —
   must be bitwise identical at any domain count.  (The table is checked
   against the all-vertex sum after every update in the staging suite.) *)
let test_oracle_pricing_parity () =
  List.iteri
    (fun i inst ->
      let g = Prng.create ~seed:(97 + i) in
      let n = Instance.n inst and k = inst.Instance.k in
      let incremental = Oracle.Price_table.create inst in
      let duals = Array.make_matrix n k 0.0 in
      for step = 1 to 6 do
        Array.iter
          (fun row ->
            for j = 0 to k - 1 do
              match Prng.int g 4 with
              | 0 -> ()
              | 1 -> row.(j) <- 0.0
              | _ -> row.(j) <- Prng.float g 1.0 *. (10.0 ** float_of_int (Prng.int g 7 - 3))
            done)
          duals;
        let y u j = duals.(u).(j) in
        Oracle.Price_table.update incremental ~y;
        let naive = Oracle.Price_table.create inst in
        Oracle.Price_table.update naive ~y;
        for bidder = 0 to n - 1 do
          for channel = 0 to k - 1 do
            let want = Oracle.Price_table.raw naive ~bidder ~channel in
            let got = Oracle.Price_table.raw incremental ~bidder ~channel in
            if Int64.bits_of_float got <> Int64.bits_of_float want then
              Alcotest.failf "step %d: incremental price (%d, %d) %h vs naive %h" step
                bidder channel got want
          done
        done
      done;
      let f1, s1 = Oracle.solve ~domains:1 inst in
      let f4, s4 = Oracle.solve ~domains:4 inst in
      Alcotest.(check (float 0.0))
        "4-domain objective bitwise equal" f1.Lp.objective f4.Lp.objective;
      Alcotest.(check int) "4-domain columns equal" s1.Oracle.columns_generated
        s4.Oracle.columns_generated;
      Alcotest.(check int) "4-domain rounds equal" s1.Oracle.iterations
        s4.Oracle.iterations)
    [
      random_unweighted_instance ~seed:61 ~n:16 ~k:3 ~d:4;
      random_weighted_instance ~seed:67 ~n:12 ~k:2;
    ]

(* Rounding.solve_par: per-trial PRNG streams merged in index order, so the
   chosen allocation is a function of the seed alone, not the domain count. *)
let test_rounding_solve_par_deterministic () =
  let inst = random_unweighted_instance ~seed:71 ~n:18 ~k:3 ~d:4 in
  let frac = Lp.solve_explicit inst in
  let a1 = Rounding.solve_par ~domains:1 ~trials:6 ~seed:5 inst frac in
  let a4 = Rounding.solve_par ~domains:4 ~trials:6 ~seed:5 inst frac in
  Alcotest.(check bool) "identical allocations" true (a1 = a4);
  Alcotest.(check bool) "feasible" true (Allocation.is_feasible inst a1)

(* ---------- Exact and greedy --------------------------------------------- *)

let test_exact_beats_greedy () =
  for seed = 1 to 10 do
    let inst = random_unweighted_instance ~seed ~n:10 ~k:2 ~d:3 in
    let e = Exact.solve inst in
    let g1 = Greedy.by_value inst in
    let g2 = Greedy.by_density inst in
    Alcotest.(check bool) "greedy by_value feasible" true (Allocation.is_feasible inst g1);
    Alcotest.(check bool) "greedy by_density feasible" true (Allocation.is_feasible inst g2);
    Alcotest.(check bool) "exact >= greedy" true
      (e.Exact.value >= Allocation.value inst g1 -. 1e-9
      && e.Exact.value >= Allocation.value inst g2 -. 1e-9)
  done

let test_greedy_from_lp () =
  let inst = random_unweighted_instance ~seed:47 ~n:15 ~k:3 ~d:4 in
  let frac = Lp.solve_explicit inst in
  let alloc = Greedy.from_lp inst frac in
  Alcotest.(check bool) "feasible" true (Allocation.is_feasible inst alloc)

let test_rate_based_bidders () =
  let g = Prng.create ~seed:97 in
  let sys =
    Sa_wireless.Link.of_point_pairs
      (Sa_geom.Placement.random_links g ~n:10 ~side:8.0 ~min_len:0.5 ~max_len:2.0)
  in
  let prm = { Sa_wireless.Sinr.alpha = 3.0; beta = 1.5; noise = 0.01 } in
  let bidders = Sa_exp.Workloads.rate_based_bidders g ~sys ~k:3 ~prm in
  Alcotest.(check int) "one per link" 10 (Array.length bidders);
  Array.iter (fun b -> Valuation.validate b ~k:3) bidders;
  (* shorter links are worth more per channel (same demand would be needed
     for a strict check; verify the monotone rate component instead) *)
  Array.iteri
    (fun i b ->
      let v1 = Valuation.value b (Bundle.singleton 0) in
      Alcotest.(check bool)
        (Printf.sprintf "link %d positive value" i)
        true (v1 > 0.0);
      (* concavity: marginal value decreases *)
      let v2 = Valuation.value b (Bundle.of_list [ 0; 1 ]) in
      let v3 = Valuation.value b (Bundle.full 3) in
      Alcotest.(check bool) "diminishing returns" true
        (v2 -. v1 <= v1 +. 1e-9 && v3 -. v2 <= v2 -. v1 +. 1e-9))
    bidders

(* ---------- Derandomization ---------------------------------------------- *)

let test_derand_deterministic () =
  let inst = random_unweighted_instance ~seed:71 ~n:12 ~k:2 ~d:3 in
  let frac = Lp.solve_explicit inst in
  let a = Sa_core.Derand.algorithm1_derand inst frac in
  let b = Sa_core.Derand.algorithm1_derand inst frac in
  Alcotest.(check bool) "same result on re-run" true (a = b);
  Alcotest.(check bool) "feasible" true (Allocation.is_feasible inst a)

let test_derand_meets_bound () =
  (* The seed family realises the Theorem-3 expectation on average, so its
     best member must clear the bound (up to 1/p quantisation slack). *)
  for seed = 1 to 5 do
    let inst = random_unweighted_instance ~seed ~n:12 ~k:2 ~d:3 in
    let frac = Lp.solve_explicit inst in
    let alloc = Sa_core.Derand.algorithm1_derand inst frac in
    let bound = frac.Lp.objective /. Rounding.guarantee inst in
    let v = Allocation.value inst alloc in
    if v < 0.9 *. bound then
      Alcotest.failf "derandomized value %.4f below bound %.4f" v bound
  done

let test_derand_weighted () =
  let inst = random_weighted_instance ~seed:73 ~n:10 ~k:2 in
  let frac = Lp.solve_explicit inst in
  let alloc = Sa_core.Derand.algorithm23_derand inst frac in
  Alcotest.(check bool) "feasible" true (Allocation.is_feasible inst alloc)

let test_derand_beats_expectation () =
  (* max over the family >= mean of random rounding (sanity of the
     construction, not a theorem). *)
  let inst = random_unweighted_instance ~seed:79 ~n:12 ~k:2 ~d:3 in
  let frac = Lp.solve_explicit inst in
  let derand = Allocation.value inst (Sa_core.Derand.algorithm1_derand inst frac) in
  let g = Prng.create ~seed:80 in
  let runs = 100 in
  let total = ref 0.0 in
  for _ = 1 to runs do
    total := !total +. Allocation.value inst (Rounding.algorithm1 g inst frac)
  done;
  Alcotest.(check bool) "derand >= mean of random" true
    (derand >= !total /. float_of_int runs -. 1e-9)

(* ---------- Asymmetric channels / hardness gadgets ----------------------- *)

let test_theorem14_instance () =
  let g = Prng.create ~seed:53 in
  let base = Generators.random_bounded_degree g ~n:16 ~d:4 in
  let inst, pi = Hardness.theorem14_instance base ~k:2 in
  Alcotest.(check bool) "asymmetric" true (Instance.is_asymmetric inst);
  (* An allocation giving the full bundle to an independent set of the base
     graph must be feasible, and its welfare equals the set size. *)
  let mis = (Sa_graph.Indep.max_independent_set base).Sa_graph.Indep.set in
  let alloc = Allocation.empty (Instance.n inst) in
  List.iter (fun v -> alloc.(v) <- Bundle.full 2) mis;
  Alcotest.(check bool) "independent set fully allocable" true
    (Allocation.is_feasible inst alloc);
  Alcotest.(check (float 1e-9)) "welfare = |MIS|"
    (float_of_int (List.length mis))
    (Allocation.value inst alloc);
  ignore pi

let test_asymmetric_rounding () =
  let g = Prng.create ~seed:59 in
  let base = Generators.random_bounded_degree g ~n:16 ~d:4 in
  let inst, _ = Hardness.theorem14_instance base ~k:3 in
  let frac = Lp.solve_explicit inst in
  let rng = Prng.create ~seed:60 in
  for _ = 1 to 20 do
    let alloc = Rounding.algorithm_asymmetric rng inst frac in
    if not (Allocation.is_feasible inst alloc) then
      Alcotest.failf "asymmetric rounding infeasible"
  done

let random_weighted_asym_instance ~seed ~n ~k =
  (* Per-channel random weighted graphs with identity ordering. *)
  let g = Prng.create ~seed in
  let graphs =
    Array.init k (fun _ -> Generators.random_weighted g ~n ~density:0.3 ~scale:0.6)
  in
  let pi = Ordering.identity n in
  let rho =
    Array.fold_left
      (fun acc wg -> Float.max acc (Inductive.rho_weighted wg pi).Inductive.rho)
      1.0 graphs
  in
  let bidders =
    Array.init n (fun _ ->
        Vgen.random_xor g ~k ~bids:3 ~max_bundle:(min 2 k)
          ~dist:(Vgen.Uniform (1.0, 10.0)))
  in
  Instance.make ~conflict:(Instance.Per_channel_weighted graphs) ~k ~bidders
    ~ordering:pi ~rho

let test_asymmetric_weighted_rounding () =
  let inst = random_weighted_asym_instance ~seed:91 ~n:14 ~k:3 in
  let frac = Lp.solve_explicit inst in
  Alcotest.(check bool) "LP solution feasible" true (Lp.is_lp_feasible inst frac);
  let g = Prng.create ~seed:92 in
  for _ = 1 to 20 do
    let partly = Rounding.algorithm_asymmetric_weighted g inst frac in
    let final = Rounding.algorithm3_asymmetric inst partly in
    if not (Allocation.is_feasible inst final) then
      Alcotest.failf "asymmetric weighted pipeline infeasible";
    (* the make-feasible pass only removes whole bundles *)
    Array.iteri
      (fun v b ->
        if not (Bundle.is_empty b) then
          Alcotest.(check bool) "subset of partial" true (Bundle.equal b partly.(v)))
      final
  done

let test_asymmetric_weighted_solve_and_exact () =
  let inst = random_weighted_asym_instance ~seed:93 ~n:10 ~k:2 in
  let frac = Lp.solve_explicit inst in
  let e = Exact.solve inst in
  Alcotest.(check bool) "LP >= exact" true (frac.Lp.objective >= e.Exact.value -. 1e-6);
  let g = Prng.create ~seed:94 in
  let alloc = Rounding.solve ~trials:8 g inst frac in
  Alcotest.(check bool) "solve dispatches + feasible" true
    (Allocation.is_feasible inst alloc);
  let adaptive = Rounding.solve_adaptive ~trials:4 g inst frac in
  Alcotest.(check bool) "adaptive feasible" true
    (Allocation.is_feasible inst adaptive);
  Alcotest.(check bool) "below exact+eps... below LP" true
    (Allocation.value inst adaptive <= frac.Lp.objective +. 1e-6)

let test_asymmetric_weighted_lemma1 () =
  let inst = random_weighted_asym_instance ~seed:95 ~n:10 ~k:2 in
  let e = Exact.solve inst in
  let point = Lp.of_allocation inst e.Exact.allocation in
  Alcotest.(check bool) "integral optimum is an LP point" true
    (Lp.is_lp_feasible inst point)

let test_clique_gap () =
  (* §2.1: edge LP value n/2 on the clique; the ρ-based LP stays O(ρ). *)
  let n = 12 in
  let inst = Hardness.clique_auction ~n in
  let frac = Lp.solve_explicit inst in
  let weights = Array.make n 1.0 in
  let edge = Edge_lp.solve (Graph.clique n) ~weights in
  Alcotest.(check (float 1e-6)) "edge LP = n/2" (float_of_int n /. 2.0)
    edge.Edge_lp.lp_value;
  Alcotest.(check bool)
    (Printf.sprintf "rho-LP %.3f <= 2" frac.Lp.objective)
    true
    (frac.Lp.objective <= 2.0 +. 1e-6)

(* ---------- property tests ----------------------------------------------- *)

let prop_rounding_feasible =
  QCheck.Test.make ~name:"algorithm1 always feasible (random instances)"
    ~count:25
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let inst = random_unweighted_instance ~seed ~n:12 ~k:3 ~d:4 in
      let frac = Lp.solve_explicit inst in
      let g = Prng.create ~seed:(seed + 1) in
      let alloc = Rounding.algorithm1 g inst frac in
      Allocation.is_feasible inst alloc)

let prop_alg23_feasible =
  QCheck.Test.make ~name:"algorithm2+3 always feasible (random weighted)"
    ~count:20
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let inst = random_weighted_instance ~seed ~n:12 ~k:2 in
      let frac = Lp.solve_explicit inst in
      let g = Prng.create ~seed:(seed + 1) in
      let partly = Rounding.algorithm2 g inst frac in
      let final = Rounding.algorithm3 inst partly in
      Rounding.is_partly_feasible inst partly && Allocation.is_feasible inst final)

let prop_lp_bounds_exact =
  QCheck.Test.make ~name:"LP optimum dominates integral optimum" ~count:20
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let inst = random_unweighted_instance ~seed ~n:9 ~k:2 ~d:3 in
      let frac = Lp.solve_explicit inst in
      let e = Exact.solve inst in
      frac.Lp.objective >= e.Exact.value -. 1e-6)

let suite =
  [
    Alcotest.test_case "Lemma 1: allocations are LP points" `Quick test_lemma1;
    Alcotest.test_case "LP bounds the integral optimum" `Quick test_lp_upper_bounds_opt;
    Alcotest.test_case "LP optimum self-feasible" `Quick test_lp_solution_feasible;
    Alcotest.test_case "zeroed bidder lowers LP" `Quick test_lp_zeroed_bidder;
    Alcotest.test_case "Observation 2: scaling keeps feasibility" `Quick test_lp_scale;
    QCheck_alcotest.to_alcotest prop_lp_engines_agree;
    Alcotest.test_case "algorithm1 feasibility" `Quick test_algorithm1_feasible;
    Alcotest.test_case "algorithm1 expectation bound (Thm 3)" `Slow test_algorithm1_expectation;
    Alcotest.test_case "rounding below LP optimum" `Quick test_solve_never_worse_than_bound_needed;
    Alcotest.test_case "algorithm2 partly feasible (Lemma 7)" `Quick test_algorithm2_partly_feasible;
    Alcotest.test_case "algorithm3 feasible + monotone" `Quick test_algorithm3_feasible;
    Alcotest.test_case "algorithm3 value bound (Lemma 8)" `Quick test_algorithm3_value_bound;
    Alcotest.test_case "oracle = explicit (XOR)" `Quick test_oracle_matches_explicit_xor;
    Alcotest.test_case "oracle = explicit (mixed languages)" `Quick test_oracle_matches_explicit_mixed;
    Alcotest.test_case "oracle = explicit (weighted graph)" `Quick test_oracle_weighted;
    Alcotest.test_case "oracle pricing: naive = incremental = 4 domains" `Quick
      test_oracle_pricing_parity;
    Alcotest.test_case "rounding solve_par deterministic across domains" `Quick
      test_rounding_solve_par_deterministic;
    Alcotest.test_case "exact >= greedy; greedy feasible" `Quick test_exact_beats_greedy;
    Alcotest.test_case "LP-guided greedy feasible" `Quick test_greedy_from_lp;
    Alcotest.test_case "rate-based valuations" `Quick test_rate_based_bidders;
    Alcotest.test_case "derandomization deterministic + feasible" `Quick test_derand_deterministic;
    Alcotest.test_case "derandomization meets Theorem 3 bound" `Slow test_derand_meets_bound;
    Alcotest.test_case "derandomization (weighted) feasible" `Quick test_derand_weighted;
    Alcotest.test_case "derandomization beats random mean" `Slow test_derand_beats_expectation;
    Alcotest.test_case "Theorem 14 construction" `Quick test_theorem14_instance;
    Alcotest.test_case "asymmetric rounding feasible" `Quick test_asymmetric_rounding;
    Alcotest.test_case "asymmetric weighted pipeline" `Quick test_asymmetric_weighted_rounding;
    Alcotest.test_case "asymmetric weighted solve + exact" `Quick test_asymmetric_weighted_solve_and_exact;
    Alcotest.test_case "asymmetric weighted Lemma 1" `Quick test_asymmetric_weighted_lemma1;
    Alcotest.test_case "clique integrality gap (edge LP vs rho LP)" `Quick test_clique_gap;
    QCheck_alcotest.to_alcotest prop_rounding_feasible;
    QCheck_alcotest.to_alcotest prop_alg23_feasible;
    QCheck_alcotest.to_alcotest prop_lp_bounds_exact;
  ]
