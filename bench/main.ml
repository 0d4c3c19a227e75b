(* Bechamel benchmark harness: one group per experiment family (DESIGN.md §3).

   Measures the runtime of every pipeline stage the experiments use: LP
   construction + solve (explicit and demand-oracle), the three rounding
   algorithms, baselines, exact search, rho computation, SINR graph
   construction, power control, and the Lavi-Swamy decomposition.

   Also times the batch engine (lib/engine) on a repeat-topology workload,
   cold vs warm-started, and writes the comparison to BENCH_engine.json —
   the recorded perf trajectory for the serving path.

   Run with: dune exec bench/main.exe
   Flags: --quick       engine smoke run only (small workload, no bechamel)
          --engine-out  output path for the JSON summary (default
                        BENCH_engine.json)

   A second group, `bench kernels` (dune exec bench/main.exe -- kernels),
   times the sparse hot-path kernels: bitset-vs-matrix graph queries, a
   certified eta-file LP solve, warm re-solves on a reused vs a fresh
   workspace arena (bitwise parity and allocation ratio), and the full
   colgen+rounding pipeline with naive vs incremental dual pricing and
   1-vs-N domains, writing BENCH_kernels.json.  Flags: --quick (small
   instance), --domains N, --kernels-out PATH.

   A third group, `bench construction` (dune exec bench/main.exe --
   construction), compares the grid-based instance constructors against
   their all-pairs references — disk conflict graphs at several sizes and
   the sparse thm13 SINR graph with its certified dropped-weight bounds —
   writing BENCH_construction.json.  Flags: --quick, --construction-out
   PATH.

   A fourth group, `bench resilience` (dune exec bench/main.exe --
   resilience), measures the fault-tolerance overhead of the serving
   path: the same disk-heavy workload at fault rates 0 / 0.25 / 0.5
   under the default retry+fallback policy, reporting wall-clock
   overhead, per-tier job counts, welfare retention, and same-seed
   determinism, writing BENCH_resilience.json.  Flags: --quick,
   --resilience-out PATH.

   A fifth group, `bench observability` (dune exec bench/main.exe --
   observability), measures the cost of the tracing + event-log layer on
   the engine workload (sinks off vs on, interleaved min-of-N passes) and
   validates the Chrome trace and event-log determinism, writing
   BENCH_observability.json.  Flags: --quick, --observability-out PATH.

   A sixth group, `bench scheduler` (dune exec bench/main.exe --
   scheduler), measures the persistent domain pool against the old
   spawn-per-call fan-out: per-call latency on a batch of many small
   calls, dynamic self-scheduling vs static striding on a skewed-cost
   batch, and the cross-job column pool's colgen-round savings on an
   exact-repeat oracle workload (with bitwise objective parity and
   same-seed determinism checked at every domain count), writing
   BENCH_scheduler.json.  Flags: --quick, --domains N, --scheduler-out
   PATH. *)

open Bechamel


module Prng = Sa_util.Prng
module Workloads = Sa_exp.Workloads
module Instance = Sa_core.Instance
module Lp = Sa_core.Lp_relaxation
module Rounding = Sa_core.Rounding
module Greedy = Sa_core.Greedy
module Exact = Sa_core.Exact
module Edge_lp = Sa_core.Edge_lp
module Oracle = Sa_core.Oracle_solver
module Decomposition = Sa_mech.Decomposition
module Inductive = Sa_graph.Inductive
module Graph = Sa_graph.Graph
module Weighted = Sa_graph.Weighted
module Link = Sa_wireless.Link
module Sinr = Sa_wireless.Sinr
module Sinr_graph = Sa_wireless.Sinr_graph
module Power_control = Sa_wireless.Power_control
module Placement = Sa_geom.Placement

(* ---- fixtures (built once, outside the staged closures) ----------------- *)

let protocol_inst = Workloads.protocol_instance ~seed:1 ~n:25 ~k:4 ()
let protocol_frac = Lp.solve_explicit protocol_inst

let sinr_inst, _sinr_sys =
  Workloads.sinr_fixed_instance ~seed:2 ~n:20 ~k:3 ~scheme:Sinr.Uniform ()

let sinr_frac = Lp.solve_explicit sinr_inst

let small_inst = Workloads.protocol_instance ~seed:3 ~n:12 ~k:2 ()
let small_frac = Lp.solve_explicit small_inst

let asym_inst = Workloads.asymmetric_instance ~seed:4 ~n:16 ~k:3 ~d:4
let asym_frac = Lp.solve_explicit asym_inst

let mixed_inst =
  Workloads.protocol_instance ~seed:5 ~n:15 ~k:6 ~profile:Workloads.Mixed ()

let clique32 = Graph.clique 32
let clique_weights = Array.make 32 1.0

let pc_links =
  let g = Prng.create ~seed:6 in
  Link.of_point_pairs (Placement.random_links g ~n:30 ~side:40.0 ~min_len:0.5 ~max_len:2.0)

let pc_params = Workloads.sinr_default_params

let pc_set =
  (* a thm13-independent set found greedily *)
  let wg = Sinr_graph.thm13_graph pc_links pc_params in
  let chosen = ref [] in
  for i = 0 to Link.n pc_links - 1 do
    if Weighted.is_independent wg (i :: !chosen) then chosen := i :: !chosen
  done;
  !chosen

let protocol_graph =
  match protocol_inst.Instance.conflict with
  | Instance.Unweighted g -> g
  | Instance.Edge_weighted _ | Instance.Per_channel _ | Instance.Per_channel_weighted _ -> assert false

let sinr_wg =
  match sinr_inst.Instance.conflict with
  | Instance.Edge_weighted wg -> wg
  | Instance.Unweighted _ | Instance.Per_channel _ | Instance.Per_channel_weighted _ -> assert false

(* ---- tests --------------------------------------------------------------- *)

let stage_with_rng f =
  let counter = ref 0 in
  Staged.stage (fun () ->
      incr counter;
      let g = Prng.create ~seed:!counter in
      f g)

let tests =
  Test.make_grouped ~name:"specauction"
    [
      (* E1: unweighted pipeline *)
      Test.make ~name:"e1/lp-explicit-n25-k4"
        (Staged.stage (fun () -> ignore (Lp.solve_explicit protocol_inst)));
      Test.make ~name:"e1/alg1-n25-k4"
        (stage_with_rng (fun g ->
             ignore (Rounding.algorithm1 g protocol_inst protocol_frac)));
      Test.make ~name:"e1/alg1-adaptive-n25-k4"
        (stage_with_rng (fun g ->
             ignore (Rounding.solve_adaptive ~trials:2 g protocol_inst protocol_frac)));
      (* E2: weighted pipeline *)
      Test.make ~name:"e2/lp-weighted-n20-k3"
        (Staged.stage (fun () -> ignore (Lp.solve_explicit sinr_inst)));
      Test.make ~name:"e2/alg2+3-n20-k3"
        (stage_with_rng (fun g ->
             let p = Rounding.algorithm2 g sinr_inst sinr_frac in
             ignore (Rounding.algorithm3 sinr_inst p)));
      (* E3/E4: rho computation *)
      Test.make ~name:"e3/rho-unweighted-n25"
        (Staged.stage (fun () ->
             ignore
               (Inductive.rho_unweighted protocol_graph
                  protocol_inst.Instance.ordering)));
      Test.make ~name:"e4/rho-weighted-n20"
        (Staged.stage (fun () ->
             ignore
               (Inductive.rho_weighted ~node_limit:100_000 sinr_wg
                  sinr_inst.Instance.ordering)));
      (* E5: SINR graph construction + power control *)
      Test.make ~name:"e5/thm13-graph-n30"
        (Staged.stage (fun () ->
             ignore (Sinr_graph.thm13_graph pc_links pc_params)));
      Test.make ~name:"e5/power-control"
        (Staged.stage (fun () ->
             ignore (Power_control.assign pc_links pc_params pc_set)));
      (* E6: mechanism *)
      Test.make ~name:"e6/decomposition-n12"
        (stage_with_rng (fun g ->
             ignore
               (Decomposition.decompose ~max_rounds:20 ~pricing_trials:4 g
                  small_inst small_frac
                  ~alpha:(Rounding.guarantee small_inst))));
      (* E7: asymmetric *)
      Test.make ~name:"e7/asym-round-n16-k3"
        (stage_with_rng (fun g ->
             ignore (Rounding.algorithm_asymmetric g asym_inst asym_frac)));
      (* E8: baselines *)
      Test.make ~name:"e8/greedy-by-value-n25"
        (Staged.stage (fun () -> ignore (Greedy.by_value protocol_inst)));
      Test.make ~name:"e8/exact-n12-k2"
        (Staged.stage (fun () -> ignore (Exact.solve small_inst)));
      Test.make ~name:"e8/edge-lp-clique32"
        (Staged.stage (fun () ->
             ignore (Edge_lp.solve clique32 ~weights:clique_weights)));
      (* E9: column generation *)
      Test.make ~name:"e9/oracle-colgen-n15-k6"
        (Staged.stage (fun () -> ignore (Oracle.solve mixed_inst)));
      (* E10: derandomized rounding *)
      Test.make ~name:"e10/derand-n12-k2"
        (Staged.stage (fun () ->
             ignore (Sa_core.Derand.algorithm1_derand small_inst small_frac)));
      (* E11: one market epoch (build + LP + round) at ~10 active bidders *)
      Test.make ~name:"e11/market-10-epochs"
        (stage_with_rng (fun g ->
             ignore g;
             let cfg =
               {
                 Sa_sim.Market.default_config with
                 Sa_sim.Market.epochs = 10;
                 arrivals_per_epoch = 3.0;
                 k = 2;
               }
             in
             ignore (Sa_sim.Market.run ~seed:1 cfg)));
      (* the explicit auction LP *)
      Test.make ~name:"lp-engine/revised-n25-k4"
        (Staged.stage (fun () -> ignore (Lp.solve_explicit protocol_inst)));
      (* serialization roundtrip *)
      Test.make ~name:"io/serialize-roundtrip-n25"
        (Staged.stage (fun () ->
             ignore
               (Sa_core.Serialize.instance_of_string
                  (Sa_core.Serialize.instance_to_string protocol_inst))));
    ]

(* ---- batch engine: cold vs warm throughput ------------------------------- *)

module Engine = Sa_engine.Engine
module Workload = Sa_engine.Workload
module Metrics = Sa_telemetry.Metrics
module Export = Sa_telemetry.Export

(* Counter deltas and the BENCH_*.json emission convention live in
   [Bench_util], shared by every group below. *)
let with_counter_delta f = Bench_util.with_counter_delta f

let engine_workload ~quick =
  if quick then Workload.demo
  else
    [
      Workload.spec ~model:Workload.Protocol ~n:24 ~k:4 ~seed:21 ~repeat:16 ();
      Workload.spec ~model:Workload.Random_graph ~n:20 ~k:3 ~seed:8
        ~algorithm:Engine.Lp_round ~repeat:12 ();
      Workload.spec ~model:Workload.Random_graph ~n:20 ~k:3 ~seed:8
        ~algorithm:Engine.Greedy_lp ~repeat:6 ();
      Workload.spec ~model:Workload.Sinr ~n:14 ~k:2 ~seed:4 ~repeat:8 ();
    ]

let engine_bench ~quick ~out =
  let specs = engine_workload ~quick in
  (* expansion has its own engine so the run engines' cache counters stay
     attributable to the runs themselves *)
  let expander = Engine.create ~warm_start:false () in
  let jobs = Workload.expand expander specs in
  let njobs = List.length jobs in
  let run ~warm_start ~domains =
    with_counter_delta (fun () ->
        snd (Engine.run_batch ~domains (Engine.create ~warm_start ()) jobs))
  in
  (* one throwaway pass so both measured passes see warmed-up code/caches *)
  ignore (run ~warm_start:false ~domains:1);
  let cold, cold_ctr = run ~warm_start:false ~domains:1 in
  let warm, warm_ctr = run ~warm_start:true ~domains:1 in
  let domains = Sa_core.Pool.default_domains in
  let warm_par, warm_par_ctr = run ~warm_start:true ~domains in
  let ratio a b = if b > 0.0 then a /. b else Float.nan in
  let lp_speedup = ratio cold.Engine.lp_seconds warm.Engine.lp_seconds in
  let pivot_ratio =
    ratio (float_of_int cold.Engine.lp_iterations) (float_of_int warm.Engine.lp_iterations)
  in
  let throughput s = ratio (float_of_int s.Engine.jobs) s.Engine.wall_seconds in
  Printf.printf "\nengine batch (%d jobs%s):\n" njobs (if quick then ", quick" else "");
  Printf.printf "  cold 1-domain : %7.2f jobs/s  %6d pivots  lp %.4fs\n"
    (throughput cold) cold.Engine.lp_iterations cold.Engine.lp_seconds;
  Printf.printf "  warm 1-domain : %7.2f jobs/s  %6d pivots  lp %.4fs  hits %d/%d\n"
    (throughput warm) warm.Engine.lp_iterations warm.Engine.lp_seconds
    warm.Engine.warm_hits warm.Engine.jobs;
  Printf.printf "  warm %d-domain: %7.2f jobs/s  wall %.4fs\n" domains
    (throughput warm_par) warm_par.Engine.wall_seconds;
  Printf.printf "  lp speedup warm/cold: %.2fx   pivot ratio: %.2fx\n" lp_speedup
    pivot_ratio;
  let with_counters ctr s =
    Engine.summary_to_json ~extra:[ ("counters", Export.counters_to_json ctr) ] s
  in
  let json =
    Bench_util.group_json ~name:"engine-batch" ~quick
      [
        ("jobs", string_of_int njobs);
        ("parallel_domains", string_of_int domains);
        ("cold", with_counters cold_ctr cold);
        ("warm", with_counters warm_ctr warm);
        ("warm_parallel", with_counters warm_par_ctr warm_par);
        ( "warm_hit_rate",
          Printf.sprintf "%.4f"
            (ratio
               (float_of_int warm.Engine.warm_hits)
               (float_of_int warm.Engine.jobs)) );
        ("lp_speedup_warm_over_cold", Printf.sprintf "%.4f" lp_speedup);
        ("pivot_ratio_cold_over_warm", Printf.sprintf "%.4f" pivot_ratio);
        ( "telemetry",
          Export.counters_to_json (Metrics.snapshot ()).Metrics.counters );
      ]
  in
  Bench_util.write_out ~out json

(* ---- kernels: sparse hot paths vs dense references ----------------------- *)

module Simplex = Sa_lp.Simplex
module Revised = Sa_lp.Revised
module Workspace = Sa_lp.Workspace

(* Naive dense adjacency reference (the pre-bitset representation), kept
   here so the micro-benchmark always compares against the same baseline
   regardless of how lib/graph evolves. *)
let dense_matrix g =
  let n = Graph.n g in
  let m = Array.make_matrix n n false in
  Graph.iter_edges g (fun u v ->
      m.(u).(v) <- true;
      m.(v).(u) <- true);
  m

let dense_is_independent m set =
  List.for_all
    (fun u -> List.for_all (fun v -> u = v || not m.(u).(v)) set)
    set

(* Greedy max-weight independent set, the conflict-scan kernel of
   [Indep.greedy_weight]: every *accepted* vertex must be checked against
   the whole chosen set, so there is no early exit and the scan cost is
   what the representations differ on.  The dense reference keeps the
   chosen set as a list over a bool matrix (the pre-bitset code shape). *)
let dense_greedy m weights =
  let n = Array.length weights in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare weights.(b) weights.(a)) order;
  let chosen = ref [] in
  Array.iter
    (fun v ->
      if weights.(v) > 0.0 && List.for_all (fun u -> not m.(u).(v)) !chosen then
        chosen := v :: !chosen)
    order;
  !chosen

let bitset_greedy graph weights =
  let n = Array.length weights in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare weights.(b) weights.(a)) order;
  let chosen = ref [] in
  let mask = Graph.mask_create graph in
  Array.iter
    (fun v ->
      if weights.(v) > 0.0 && not (Graph.row_intersects graph v mask) then begin
        Sa_graph.Bitset.add mask v;
        chosen := v :: !chosen
      end)
    order;
  !chosen

let kernels_graph_micro ~quick =
  let n = if quick then 200 else 400 in
  let g_rng = Prng.create ~seed:11 in
  let graph = Sa_graph.Generators.random_bounded_degree g_rng ~n ~d:10 in
  let m = dense_matrix graph in
  let reps = if quick then 300 else 600 in
  let weight_sets =
    Array.init reps (fun _ -> Array.init n (fun _ -> Prng.float g_rng 10.0))
  in
  let dense_out = Array.make reps [] in
  let (), dense_s =
    Sa_util.Timing.time (fun () ->
        Array.iteri (fun i w -> dense_out.(i) <- dense_greedy m w) weight_sets)
  in
  let bitset_out = Array.make reps [] in
  let (), bitset_s =
    Sa_util.Timing.time (fun () ->
        Array.iteri (fun i w -> bitset_out.(i) <- bitset_greedy graph w) weight_sets)
  in
  (* Batch feasibility certification on the greedy outputs: checking a set
     that IS independent admits no early exit, so the dense reference pays
     the full O(|S|^2) scan — the shape of certifying rounded allocations. *)
  let subsets = Array.map (fun s -> s) bitset_out in
  let dense_ind = Array.make reps false in
  let (), dense_ind_s =
    Sa_util.Timing.time (fun () ->
        Array.iteri (fun i s -> dense_ind.(i) <- dense_is_independent m s) subsets)
  in
  let bitset_ind = Array.make reps false in
  let (), bitset_ind_s =
    Sa_util.Timing.time (fun () ->
        Array.iteri (fun i s -> bitset_ind.(i) <- Graph.is_independent graph s) subsets)
  in
  let agree = dense_out = bitset_out && dense_ind = bitset_ind in
  Printf.printf
    "  graph  greedy-MIS x%d (n=%d): dense %.4fs  bitset %.4fs  (%.1fx)\n" reps n
    dense_s bitset_s (dense_s /. bitset_s);
  Printf.printf
    "  graph  is_independent x%d:    dense %.4fs  bitset %.4fs  (%.1fx, agree=%b)\n"
    reps dense_ind_s bitset_ind_s (dense_ind_s /. bitset_ind_s) agree;
  Printf.sprintf
    "{\"n\":%d,\"reps\":%d,\"greedy\":{\"dense_seconds\":%.6f,\
     \"bitset_seconds\":%.6f,\"speedup\":%.3f},\"is_independent\":\
     {\"dense_seconds\":%.6f,\"bitset_seconds\":%.6f,\"speedup\":%.3f},\
     \"agree\":%b}"
    n reps dense_s bitset_s (dense_s /. bitset_s) dense_ind_s bitset_ind_s
    (dense_ind_s /. bitset_ind_s) agree

(* LP(1)-shaped packing problem: unit rows + interference rows.  1200x1000
   at full size (nb=200, k=5); shared by the lp micro-benchmark and the
   workspace-reuse case so both measure the same instance. *)
let packing_problem ~quick =
  let g = Prng.create ~seed:13 in
  let nb = if quick then 60 else 200 in
  let k = if quick then 4 else 5 in
  let ncols = nb * (if quick then 4 else 5) in
  let owner = Array.init ncols (fun c -> c mod nb) in
  let c = Array.init ncols (fun _ -> Prng.float g 10.0) in
  let unit_rows =
    Array.init nb (fun v ->
        ( Array.init ncols (fun cix -> if owner.(cix) = v then 1.0 else 0.0),
          Simplex.Le,
          1.0 ))
  in
  let intf_rows =
    Array.init (nb * k) (fun _ ->
        ( Array.init ncols (fun _ ->
              if Prng.bernoulli g 0.08 then Prng.float g 1.0 else 0.0),
          Simplex.Le,
          2.5 ))
  in
  { Simplex.direction = Simplex.Maximize; c; rows = Array.append unit_rows intf_rows }

let kernels_lp_micro ~quick =
  let p = packing_problem ~quick in
  let ncols = Array.length p.Simplex.c in
  let rows = Array.length p.Simplex.rows in
  let (eta_sol, eta_ctr), eta_s =
    Sa_util.Timing.time (fun () ->
        with_counter_delta (fun () -> Revised.solve p))
  in
  let certified = (Sa_lp.Certify.check p eta_sol).Sa_lp.Certify.certified in
  Printf.printf "  lp     %dx%d packing: eta %.4fs  (certified=%b)\n" rows ncols
    eta_s certified;
  Printf.sprintf
    "{\"rows\":%d,\"cols\":%d,\"eta_seconds\":%.6f,\"eta_objective\":%.6f,\
     \"certified\":%b,\"eta_counters\":%s}"
    rows ncols eta_s eta_sol.Simplex.objective certified
    (Export.counters_to_json eta_ctr)

(* Colgen-style warm re-solves of the same master LP: solve once cold for
   the optimal basis, then re-solve [reps] times warm-started from it —
   once sharing a single arena (the oracle-solver pattern) and once with a
   fresh arena per re-solve (the pre-workspace behaviour). *)
let kernels_workspace_reuse p ~reps =
  let run ~shared =
    let arena = Workspace.create () in
    let _, basis, _ = Revised.solve_warm ~workspace:arena p in
    let basis =
      match basis with
      | Some b -> b
      | None -> failwith "kernels bench: packing LP did not reach optimality"
    in
    let objs = Array.make reps 0.0 in
    let x0 = ref [||] in
    let alloc0 = Gc.allocated_bytes () in
    let (), seconds =
      Sa_util.Timing.time (fun () ->
          for i = 0 to reps - 1 do
            let ws = if shared then arena else Workspace.create () in
            let sol, _, _ =
              Revised.solve_warm ~warm_start:basis ~workspace:ws p
            in
            objs.(i) <- sol.Simplex.objective;
            if i = 0 then x0 := sol.Simplex.x
          done)
    in
    let per_solve = (Gc.allocated_bytes () -. alloc0) /. float_of_int reps in
    (per_solve, seconds /. float_of_int reps, objs, !x0)
  in
  let fresh_b, fresh_s, fresh_objs, fresh_x = run ~shared:false in
  let reuse_b, reuse_s, reuse_objs, reuse_x = run ~shared:true in
  let bitwise = fresh_objs = reuse_objs && fresh_x = reuse_x in
  let alloc_ratio = if reuse_b > 0.0 then fresh_b /. reuse_b else Float.nan in
  Printf.printf
    "  lp     re-solve x%d: fresh %10.0f B  %8.1f us   reuse %10.0f B  %8.1f us  \
     (%.1fx less alloc, bitwise %b)\n%!"
    reps fresh_b (fresh_s *. 1e6) reuse_b (reuse_s *. 1e6) alloc_ratio bitwise;
  Printf.sprintf
    "{\"resolves\":%d,\"fresh_alloc_bytes_per_solve\":%.0f,\
     \"fresh_seconds_per_solve\":%.9f,\"reuse_alloc_bytes_per_solve\":%.0f,\
     \"reuse_seconds_per_solve\":%.9f,\"alloc_ratio_fresh_over_reuse\":%.3f,\
     \"bitwise_equal\":%b}"
    reps fresh_b fresh_s reuse_b reuse_s alloc_ratio bitwise

let kernels_pipeline ~quick ~domains =
  let n, k, max_rounds = if quick then (200, 10, 8) else (400, 12, 8) in
  Printf.printf "  building protocol instance n=%d k=%d...\n%!" n k;
  (* Mixed bidding languages: prices move between rounds, so the column
     generation iterates (several warm-started master re-solves), and the
     budget-additive bidders' demand oracles enumerate 2^k bundles, so the
     per-round oracle calls — the part [domains] fans out — outweigh the
     serial master solves and the pool's hand-off cost. *)
  let inst =
    Workloads.protocol_instance ~seed:17 ~n ~k ~profile:Workloads.Mixed ()
  in
  (* fastest of three passes: one pass is a few hundred ms on a shared
     host, where a single timing is too noisy to compare domain counts *)
  let reps = 3 in
  let run name ~pricing ~dom =
    let pass () =
      let alloc0 = Gc.allocated_bytes () in
      let ((frac, stats, alloc), ctr), seconds =
        Sa_util.Timing.time (fun () ->
            with_counter_delta (fun () ->
                let frac, stats = Oracle.solve ~max_rounds ~pricing ~domains:dom inst in
                let alloc = Rounding.solve_par ~domains:dom ~trials:8 ~seed:23 inst frac in
                (frac, stats, alloc)))
      in
      (frac, stats, alloc, ctr, seconds, Gc.allocated_bytes () -. alloc0)
    in
    let best = ref (pass ()) in
    for _ = 2 to reps do
      let ((_, _, _, _, seconds, _) as p) = pass () in
      let _, _, _, _, best_s, _ = !best in
      if seconds < best_s then best := p
    done;
    let frac, stats, alloc, ctr, seconds, alloc_bytes = !best in
    Printf.printf
      "  %-22s %8.3fs  lp-obj %10.4f  welfare %10.4f  cols %4d  rounds %2d\n%!"
      name seconds frac.Lp.objective
      (Sa_core.Allocation.value inst alloc)
      stats.Oracle.columns_generated stats.Oracle.iterations;
    let json =
      Printf.sprintf
        "{\"seconds\":%.6f,\"objective\":%.6f,\"welfare\":%.6f,\"columns\":%d,\
         \"rounds\":%d,\"alloc_bytes\":%.0f,\"counters\":%s}"
        seconds frac.Lp.objective
        (Sa_core.Allocation.value inst alloc)
        stats.Oracle.columns_generated stats.Oracle.iterations alloc_bytes
        (Export.counters_to_json ctr)
    in
    (json, seconds, frac.Lp.objective, stats.Oracle.columns_generated)
  in
  let n_json, n_s, n_obj, n_cols = run "naive d=1" ~pricing:Oracle.Naive ~dom:1 in
  let s1_json, s1_s, s1_obj, s1_cols =
    run "incremental d=1" ~pricing:Oracle.Incremental ~dom:1
  in
  let sN_json, sN_s, _, _ =
    run
      (Printf.sprintf "incremental d=%d" domains)
      ~pricing:Oracle.Incremental ~dom:domains
  in
  let speedup = n_s /. s1_s in
  let scaling = s1_s /. sN_s in
  Printf.printf
    "  pipeline speedup incremental/naive: %.2fx   scaling d%d/d1: %.2fx\n" speedup
    domains scaling;
  Printf.sprintf
    "{\"n\":%d,\"k\":%d,\"max_rounds\":%d,\"naive\":%s,\"sparse_d1\":%s,\
     \"sparse_dN\":%s,\"speedup_incremental_over_naive\":%.3f,\
     \"scaling_dN_over_d1\":%.3f,\"parity\":{\"columns_equal\":%b,\
     \"objective_delta\":%.9f}}"
    n k max_rounds n_json s1_json sN_json speedup scaling (n_cols = s1_cols)
    (Float.abs (n_obj -. s1_obj))

let kernels_bench ~quick ~out ~domains =
  Printf.printf "kernels (%s, domains=%d):\n%!"
    (if quick then "quick" else "full")
    domains;
  let graph_json = kernels_graph_micro ~quick in
  let lp_json = kernels_lp_micro ~quick in
  let workspace_json =
    kernels_workspace_reuse (packing_problem ~quick) ~reps:(if quick then 5 else 20)
  in
  let pipeline_json = kernels_pipeline ~quick ~domains in
  let json =
    Bench_util.group_json ~name:"kernels" ~quick
      [
        ("domains", string_of_int domains);
        ("graph", graph_json);
        ("lp", lp_json);
        ("workspace", workspace_json);
        ("pipeline", pipeline_json);
      ]
  in
  Bench_util.write_out ~out json

(* ---- construction: grid builders vs naive references ---------------------- *)

module Disk = Sa_wireless.Disk
module Point = Sa_geom.Point

(* All-pairs references, kept here so the comparison baseline stays fixed
   regardless of how the library constructors evolve. *)
let naive_disk_graph disks =
  let n = Disk.n disks in
  let g = Graph.create n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if
        Point.dist (Disk.point disks i) (Disk.point disks j)
        < Disk.radius disks i +. Disk.radius disks j
      then Graph.add_edge g i j
    done
  done;
  g

let construction_disk_case ~n =
  let g = Prng.create ~seed:31 in
  let side = 4.0 *. sqrt (float_of_int n) in
  let disks = Disk.random g ~n ~side ~rmin:0.5 ~rmax:1.5 in
  let reps = max 1 (4000 / n) in
  let naive = ref (Graph.create 0) in
  let (), naive_s =
    Sa_util.Timing.time (fun () ->
        for _ = 1 to reps do
          naive := naive_disk_graph disks
        done)
  in
  let grid = ref (Graph.create 0) in
  let ((), ctr), grid_s =
    Sa_util.Timing.time (fun () ->
        with_counter_delta (fun () ->
            for _ = 1 to reps do
              grid := Disk.conflict_graph disks
            done))
  in
  let agree = Graph.edges !naive = Graph.edges !grid in
  let speedup = naive_s /. grid_s in
  Printf.printf
    "  disk   n=%4d x%2d: naive %.4fs  grid %.4fs  (%.1fx, m=%d, agree=%b)\n%!" n
    reps naive_s grid_s speedup (Graph.num_edges !grid) agree;
  Printf.sprintf
    "{\"n\":%d,\"reps\":%d,\"edges\":%d,\"naive_seconds\":%.6f,\
     \"grid_seconds\":%.6f,\"speedup\":%.3f,\"agree\":%b,\"counters\":%s}"
    n reps (Graph.num_edges !grid) naive_s grid_s speedup agree
    (Export.counters_to_json ctr)

let construction_thm13_case ~n =
  let g = Prng.create ~seed:37 in
  let side = 8.0 *. sqrt (float_of_int n) in
  let sys =
    Link.of_point_pairs (Placement.random_links g ~n ~side ~min_len:0.5 ~max_len:2.0)
  in
  let prm = Workloads.sinr_default_params in
  let w_min = 0.05 in
  let dense = ref (Weighted.create 0) in
  let (), dense_s =
    Sa_util.Timing.time (fun () -> dense := Sinr_graph.thm13_graph sys prm)
  in
  let sparse = ref (Weighted.create 0) in
  let ((), ctr), sparse_s =
    Sa_util.Timing.time (fun () ->
        with_counter_delta (fun () ->
            sparse := Sinr_graph.thm13_graph_sparse ~w_min sys prm))
  in
  let dense = !dense and sparse = !sparse in
  (* parity: every stored sparse entry is bitwise equal to the dense one,
     nothing at or above the floor was dropped, and each row's missing
     in-weight stays within its certified bound (fp-summation slack only) *)
  let agree = ref true in
  let max_bound = ref 0.0 in
  for v = 0 to n - 1 do
    let dense_sum = ref 0.0 in
    for u = 0 to n - 1 do
      if u <> v then begin
        let dw = Weighted.w dense u v and sw = Weighted.w sparse u v in
        dense_sum := !dense_sum +. dw;
        if sw > 0.0 && sw <> dw then agree := false;
        if sw = 0.0 && dw >= w_min then agree := false
      end
    done;
    let bound = Weighted.dropped_in_bound sparse v in
    if bound > !max_bound then max_bound := bound;
    let gap = !dense_sum -. Weighted.in_weight sparse v in
    if gap > bound +. (1e-6 *. (1.0 +. bound)) then agree := false
  done;
  let bound_cap = w_min *. float_of_int n in
  if !max_bound > bound_cap then agree := false;
  let speedup = dense_s /. sparse_s in
  let density =
    float_of_int (Weighted.nnz sparse) /. float_of_int (max 1 (n * (n - 1) / 2))
  in
  Printf.printf
    "  thm13  n=%4d: dense %.4fs  sparse %.4fs  (%.1fx, nnz=%d, %.1f%% of pairs, \
     max row bound %.3f <= %.1f, agree=%b)\n%!"
    n dense_s sparse_s speedup (Weighted.nnz sparse) (100.0 *. density) !max_bound
    bound_cap !agree;
  Printf.sprintf
    "{\"n\":%d,\"w_min\":%.6f,\"nnz\":%d,\"dense_seconds\":%.6f,\
     \"sparse_seconds\":%.6f,\"speedup\":%.3f,\"max_dropped_in_bound\":%.6f,\
     \"dropped_in_cap\":%.6f,\"agree\":%b,\"counters\":%s}"
    n w_min (Weighted.nnz sparse) dense_s sparse_s speedup !max_bound bound_cap
    !agree (Export.counters_to_json ctr)

let construction_bench ~quick ~out =
  Printf.printf "construction (%s):\n%!" (if quick then "quick" else "full");
  let disk_sizes = if quick then [ 200; 1000 ] else [ 200; 1000; 4000 ] in
  let disk_json =
    String.concat "," (List.map (fun n -> construction_disk_case ~n) disk_sizes)
  in
  let thm13_json = construction_thm13_case ~n:(if quick then 300 else 1000) in
  let json =
    Bench_util.group_json ~name:"construction" ~quick
      [ ("disk", "[" ^ disk_json ^ "]"); ("thm13", thm13_json) ]
  in
  Bench_util.write_out ~out json

(* ---- resilience: fault-injection overhead vs fault-free baseline ---------- *)

module Faultgen = Sa_engine.Faultgen

let resilience_workload ~quick =
  if quick then
    [
      Workload.spec ~model:Workload.Disk ~n:12 ~k:2 ~seed:41 ~repeat:4 ();
      Workload.spec ~model:Workload.Protocol ~n:10 ~k:2 ~seed:44
        ~algorithm:Engine.Lp_round ~repeat:3 ();
    ]
  else
    [
      Workload.spec ~model:Workload.Disk ~n:36 ~k:4 ~seed:41 ~repeat:10 ();
      Workload.spec ~model:Workload.Disk ~n:30 ~k:3 ~seed:42
        ~algorithm:Engine.Lp_round ~repeat:8 ();
      Workload.spec ~model:Workload.Disk ~n:32 ~k:4 ~seed:43
        ~algorithm:Engine.Greedy_lp ~repeat:6 ();
      Workload.spec ~model:Workload.Protocol ~n:24 ~k:3 ~seed:44 ~repeat:6 ();
    ]

(* One serving pass at a given fault rate: a fresh warm-started engine, the
   default retry/fallback policy, and the per-phase counter delta so each
   rate reports the faults it actually injected. *)
let resilience_case jobs ?rate () =
  let faults =
    Option.map (fun rate -> Faultgen.create ~seed:7 ~rate ()) rate
  in
  let policy = Engine.policy ~max_retries:1 ~fallback:true ?faults () in
  let run () =
    with_counter_delta (fun () ->
        Engine.run_batch ~policy (Engine.create ~warm_start:true ()) jobs)
  in
  ignore (run ());
  (* measured pass, after a throwaway pass warmed up code paths *)
  let (results, s), ctr = run () in
  let ctr_of name = Option.value ~default:0 (List.assoc_opt name ctr) in
  let json =
    Printf.sprintf
      "{\"fault_rate\":%s,\"wall_seconds\":%.6f,\"total_welfare\":%.6f,\
       \"served_lp\":%d,\"served_greedy\":%d,\"served_online\":%d,\
       \"failed\":%d,\"retries\":%d,\"deadline_hits\":%d,\
       \"faults_injected\":%d}"
      (match rate with None -> "0.0" | Some r -> Printf.sprintf "%.2f" r)
      s.Engine.wall_seconds s.Engine.total_welfare s.Engine.served_lp
      s.Engine.served_greedy s.Engine.served_online s.Engine.failed
      s.Engine.retries s.Engine.deadline_hits
      (ctr_of "engine.faults.injected")
  in
  Printf.printf
    "  rate %s: %7.4fs  welfare %9.3f  tiers lp %d / greedy %d / online %d  \
     retries %d  injected %d\n%!"
    (match rate with None -> "off " | Some r -> Printf.sprintf "%.2f" r)
    s.Engine.wall_seconds s.Engine.total_welfare s.Engine.served_lp
    s.Engine.served_greedy s.Engine.served_online s.Engine.retries
    (ctr_of "engine.faults.injected");
  (json, results, s)

let resilience_bench ~quick ~out =
  Printf.printf "resilience (%s):\n%!" (if quick then "quick" else "full");
  let expander = Engine.create ~warm_start:false () in
  let jobs = Workload.expand expander (resilience_workload ~quick) in
  let njobs = List.length jobs in
  let base_json, _, base = resilience_case jobs () in
  let r25_json, _, _ = resilience_case jobs ~rate:0.25 () in
  let r50_json, r50_results, r50 = resilience_case jobs ~rate:0.5 () in
  (* same-seed reproducibility: a second rate-0.5 pass must serialise to
     the identical per-job JSON (the check.sh diff contract) *)
  let _, r50_results', _ = resilience_case jobs ~rate:0.5 () in
  let deterministic =
    Engine.results_to_json r50_results = Engine.results_to_json r50_results'
  in
  let all_served = r50.Engine.failed = 0 in
  let ratio a b = if b > 0.0 then a /. b else Float.nan in
  let overhead = ratio r50.Engine.wall_seconds base.Engine.wall_seconds in
  let welfare_ratio = ratio r50.Engine.total_welfare base.Engine.total_welfare in
  Printf.printf
    "  rate 0.50 vs fault-free: wall %.2fx  welfare %.3fx  all served %b  \
     deterministic %b\n"
    overhead welfare_ratio all_served deterministic;
  let json =
    Bench_util.group_json ~name:"resilience" ~quick
      [
        ("jobs", string_of_int njobs);
        ("baseline", base_json);
        ("rate_025", r25_json);
        ("rate_050", r50_json);
        ("wall_overhead_050_over_baseline", Printf.sprintf "%.4f" overhead);
        ("welfare_ratio_050_over_baseline", Printf.sprintf "%.4f" welfare_ratio);
        ("all_jobs_served_at_050", string_of_bool all_served);
        ("same_seed_deterministic", string_of_bool deterministic);
      ]
  in
  Bench_util.write_out ~out json

(* ---- observability: tracing + event-log overhead -------------------------- *)

module Trace = Sa_telemetry.Trace
module Eventlog = Sa_telemetry.Eventlog

(* Same workload as the engine bench, run with all observability sinks off
   vs on (span ring + histograms + decision event log).  Passes are
   interleaved and the minimum is taken on both sides: the container often
   has a single CPU, so min-of-interleaved cancels scheduler drift that
   would otherwise dominate a <5% effect. *)
let observability_bench ~quick ~out =
  Printf.printf "observability (%s):\n%!" (if quick then "quick" else "full");
  let expander = Engine.create ~warm_start:false () in
  let jobs = Workload.expand expander (engine_workload ~quick) in
  let njobs = List.length jobs in
  Trace.set_capacity 65536;
  (* Each timed sample repeats the whole batch: a single batch is ~10ms,
     too short to resolve a few-percent effect against scheduler jitter. *)
  let reps = if quick then 3 else 8 in
  let run_disabled () =
    Trace.set_enabled false;
    Eventlog.install None;
    let total = ref 0.0 in
    for _ = 1 to reps do
      let s = snd (Engine.run_batch (Engine.create ~warm_start:true ()) jobs) in
      total := !total +. s.Engine.wall_seconds
    done;
    !total
  in
  let run_enabled () =
    Trace.set_enabled true;
    Trace.clear ();
    let total = ref 0.0 in
    let last = ref (Eventlog.create ()) in
    for _ = 1 to reps do
      let t = Eventlog.create () in
      Eventlog.install (Some t);
      let s = snd (Engine.run_batch (Engine.create ~warm_start:true ()) jobs) in
      total := !total +. s.Engine.wall_seconds;
      last := t
    done;
    Eventlog.install None;
    (!total, !last)
  in
  ignore (run_disabled ());
  ignore (run_enabled ());
  let passes = if quick then 3 else 5 in
  let disabled = ref infinity and enabled = ref infinity in
  let events = ref 0 and spans = ref 0 in
  let first_log = ref "" in
  let deterministic = ref true in
  for pass = 1 to passes do
    let off_s = run_disabled () in
    disabled := Float.min !disabled off_s;
    let on_s, t = run_enabled () in
    enabled := Float.min !enabled on_s;
    events := List.length (Eventlog.events t);
    spans := List.length (Trace.recent ());
    let log = Eventlog.to_jsonl t in
    if pass = 1 then first_log := log
    else if log <> !first_log then deterministic := false
  done;
  let chrome = Export.spans_to_chrome (Trace.recent ()) in
  let chrome_events =
    match Export.validate_chrome chrome with
    | n -> n
    | exception Export.Parse_error _ -> -1
  in
  let overhead = if !disabled > 0.0 then !enabled /. !disabled else Float.nan in
  Printf.printf "  %d jobs x%d reps, %d interleaved passes (min taken)\n" njobs
    reps passes;
  Printf.printf "  tracing off: %.4fs   tracing+events on: %.4fs   (%.3fx)\n"
    !disabled !enabled overhead;
  Printf.printf
    "  %d spans/pass, %d events/batch  chrome valid %b  \
     events deterministic %b\n"
    !spans !events (chrome_events >= 0) !deterministic;
  let json =
    Bench_util.group_json ~name:"observability" ~quick
      [
        ("jobs", string_of_int njobs);
        ("reps", string_of_int reps);
        ("passes", string_of_int passes);
        ("disabled_wall_seconds", Printf.sprintf "%.6f" !disabled);
        ("enabled_wall_seconds", Printf.sprintf "%.6f" !enabled);
        ("overhead_ratio", Printf.sprintf "%.4f" overhead);
        ("spans_recorded", string_of_int !spans);
        ("events_logged", string_of_int !events);
        ("chrome_events", string_of_int chrome_events);
        ("chrome_trace_valid", string_of_bool (chrome_events >= 0));
        ("events_deterministic", string_of_bool !deterministic);
      ]
  in
  Bench_util.write_out ~out json

(* ---- scheduler: persistent pool vs spawn-per-call fan-out ------------------ *)

module Pool = Sa_core.Pool

(* The pre-pool fan-out (spawn d-1 domains per call, static
   striding, option-boxed results), kept verbatim here so the baseline
   stays fixed regardless of how lib/core evolves. *)
let spawn_map_array ~domains f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else
    let d = min domains n in
    if d = 1 then Array.map f arr
    else begin
      let results = Array.make n None in
      let worker shard () =
        let i = ref shard in
        while !i < n do
          results.(!i) <- Some (f arr.(!i));
          i := !i + d
        done
      in
      let doms = List.init (d - 1) (fun s -> Domain.spawn (worker (s + 1))) in
      worker 0 ();
      List.iter Domain.join doms;
      Array.map (function Some v -> v | None -> assert false) results
    end

(* (a) per-call latency: many calls over a batch of small items, where the
   fixed cost of standing up domains dominates the old path. *)
let scheduler_small_batch ~quick ~domains =
  let calls = if quick then 60 else 300 in
  let n = 64 in
  let arr = Array.init n (fun i -> i) in
  let f x =
    let acc = ref x in
    for j = 1 to 60 do
      acc := ((!acc * 31) + j) land 0xFFFFFF
    done;
    !acc
  in
  let expected = Array.map f arr in
  (* throwaway: warm up code paths and park the pool workers *)
  ignore (spawn_map_array ~domains f arr);
  ignore (Pool.map_array ~domains f arr);
  let parity = ref true in
  let time_calls map =
    let (), s =
      Sa_util.Timing.time (fun () ->
          for _ = 1 to calls do
            if map f arr <> expected then parity := false
          done)
    in
    s *. 1e6 /. float_of_int calls
  in
  let spawn_us = time_calls (fun f a -> spawn_map_array ~domains f a) in
  let pool_us = time_calls (fun f a -> Pool.map_array ~domains f a) in
  let speedup = if pool_us > 0.0 then spawn_us /. pool_us else Float.nan in
  Printf.printf
    "  small-batch x%d (n=%d, d=%d): spawn %8.1f us/call  pool %8.1f us/call  \
     (%.1fx, parity=%b)\n%!"
    calls n domains spawn_us pool_us speedup !parity;
  Printf.sprintf
    "{\"calls\":%d,\"items\":%d,\"domains\":%d,\"spawn_per_call_us\":%.3f,\
     \"pool_per_call_us\":%.3f,\"speedup_pool_over_spawn\":%.3f,\"parity\":%b}"
    calls n domains spawn_us pool_us speedup !parity

(* (b) skewed-cost batch: a few items are ~500x the rest, so static
   striding parks whole shards behind the heavy items while the pool's
   self-scheduling cursor (and steals) keep every participant busy. *)
let scheduler_skewed ~quick ~domains =
  let n = if quick then 96 else 192 in
  let heavy = if quick then 60_000 else 150_000 in
  let f i =
    let spins = if i mod 16 = 0 then heavy else 300 in
    let acc = ref 0 in
    for j = 1 to spins do
      acc := (!acc + (i * j)) land 0xFFFF
    done;
    !acc
  in
  let arr = Array.init n Fun.id in
  let expected = Array.map f arr in
  ignore (spawn_map_array ~domains f arr);
  ignore (Pool.map_array ~domains f arr);
  let parity = ref true in
  let reps = 3 in
  let time_min map =
    let best = ref infinity in
    for _ = 1 to reps do
      let (), s =
        Sa_util.Timing.time (fun () -> if map f arr <> expected then parity := false)
      in
      if s < !best then best := s
    done;
    !best
  in
  let static_s = time_min (fun f a -> spawn_map_array ~domains f a) in
  let adaptive_s = time_min (fun f a -> Pool.map_array ~domains f a) in
  let chunk1_s = time_min (fun f a -> Pool.map_array ~domains ~chunk:1 f a) in
  let ratio = if adaptive_s > 0.0 then static_s /. adaptive_s else Float.nan in
  Printf.printf
    "  skewed n=%d (d=%d): static-stride %.4fs  pool-adaptive %.4fs  \
     pool-chunk1 %.4fs  (static/adaptive %.2fx, parity=%b)\n%!"
    n domains static_s adaptive_s chunk1_s ratio !parity;
  Printf.sprintf
    "{\"items\":%d,\"domains\":%d,\"reps\":%d,\"static_stride_seconds\":%.6f,\
     \"pool_adaptive_seconds\":%.6f,\"pool_chunk1_seconds\":%.6f,\
     \"ratio_static_over_adaptive\":%.3f,\"parity\":%b}"
    n domains reps static_s adaptive_s chunk1_s ratio !parity

(* (c) cross-job column pool on an exact-repeat oracle workload: seeded
   jobs must cut colgen rounds and reproduce the cold run byte for byte
   (exact repeats re-solve the identical final master LP). *)
let scheduler_column_pool ~quick =
  let specs =
    [
      Workload.spec ~model:Workload.Clique ~n:(if quick then 20 else 24) ~k:4
        ~seed:9 ~algorithm:Engine.Oracle_round ~repeat:(if quick then 4 else 8)
        ~revalue_bids:false ();
    ]
  in
  let expander = Engine.create ~warm_start:false () in
  let jobs = Workload.expand expander specs in
  let njobs = List.length jobs in
  let run ~column_pool ~domains =
    with_counter_delta (fun () ->
        Engine.run_batch ~domains (Engine.create ~warm_start:false ~column_pool ())
          jobs)
  in
  ignore (run ~column_pool:true ~domains:1);
  let (cold_res, cold_sum), _ = run ~column_pool:false ~domains:1 in
  let (pool_res, pool_sum), pool_ctr = run ~column_pool:true ~domains:1 in
  let ctr_of name = Option.value ~default:0 (List.assoc_opt name pool_ctr) in
  let objectives_bitwise =
    Array.length cold_res = Array.length pool_res
    && Array.for_all2
         (fun (a : Engine.result) (b : Engine.result) ->
           Int64.bits_of_float a.Engine.lp_objective
           = Int64.bits_of_float b.Engine.lp_objective)
         cold_res pool_res
  in
  let bytes_identical =
    Engine.results_to_json cold_res = Engine.results_to_json pool_res
  in
  (* same-seed determinism at every domain count: two identical passes must
     serialise identically.  Exact repeats make this interleaving-proof —
     a seeded and an unseeded solve of the same job agree byte for byte,
     so it does not matter which jobs happened to hit the pool. *)
  let determinism =
    List.map
      (fun domains ->
        let (r1, _), _ = run ~column_pool:true ~domains in
        let (r2, _), _ = run ~column_pool:true ~domains in
        let same = Engine.results_to_json r1 = Engine.results_to_json r2 in
        (domains, same))
      [ 1; 2; 4 ]
  in
  let all_deterministic = List.for_all snd determinism in
  Printf.printf
    "  column-pool %d jobs: cold %d rounds -> pool %d rounds  hits %d  \
     seeded %d cols  bitwise-objectives %b  bytes-identical %b\n%!"
    njobs cold_sum.Engine.lp_iterations pool_sum.Engine.lp_iterations
    (ctr_of "core.colgen.pool.hits")
    (ctr_of "core.colgen.pool.seeded_columns")
    objectives_bitwise bytes_identical;
  List.iter
    (fun (d, same) ->
      Printf.printf "  column-pool determinism d=%d: %b\n%!" d same)
    determinism;
  let det_json =
    String.concat ","
      (List.map
         (fun (d, same) ->
           Printf.sprintf "{\"domains\":%d,\"same_seed_deterministic\":%b}" d same)
         determinism)
  in
  Printf.sprintf
    "{\"jobs\":%d,\"cold_rounds\":%d,\"pool_rounds\":%d,\"rounds_saved\":%d,\
     \"pool_hits\":%d,\"pool_misses\":%d,\"seeded_columns\":%d,\
     \"objectives_bitwise_equal\":%b,\"results_bytes_identical\":%b,\
     \"determinism\":[%s],\"same_seed_deterministic\":%b}"
    njobs cold_sum.Engine.lp_iterations pool_sum.Engine.lp_iterations
    (cold_sum.Engine.lp_iterations - pool_sum.Engine.lp_iterations)
    (ctr_of "core.colgen.pool.hits")
    (ctr_of "core.colgen.pool.misses")
    (ctr_of "core.colgen.pool.seeded_columns")
    objectives_bitwise bytes_identical det_json all_deterministic

let scheduler_bench ~quick ~out ~domains =
  Printf.printf "scheduler (%s, domains=%d):\n%!"
    (if quick then "quick" else "full")
    domains;
  let small_json = scheduler_small_batch ~quick ~domains in
  let skewed_json = scheduler_skewed ~quick ~domains in
  let colpool_json = scheduler_column_pool ~quick in
  let json =
    Bench_util.group_json ~name:"scheduler" ~quick
      [
        ("domains", string_of_int domains);
        ("small_batch", small_json);
        ("skewed", skewed_json);
        ("column_pool", colpool_json);
      ]
  in
  Bench_util.write_out ~out json

(* ---- runner + textual report --------------------------------------------- *)

let benchmark () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~stabilize:true ~quota:(Time.second 0.5) ()
  in
  let raw = Benchmark.all cfg instances tests in
  Analyze.all ols Toolkit.Instance.monotonic_clock raw

let micro_benchmarks () =
  Printf.printf "Benchmarks: one group per experiment family (see DESIGN.md)\n";
  Printf.printf "%-36s %14s\n" "benchmark" "time/run";
  Printf.printf "%s\n" (String.make 52 '-');
  let results = benchmark () in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  List.iter
    (fun (name, ols) ->
      let ns =
        match Analyze.OLS.estimates ols with
        | Some (t :: _) -> t
        | Some [] | None -> Float.nan
      in
      let pretty =
        if Float.is_nan ns then "n/a"
        else if ns > 1e9 then Printf.sprintf "%8.2f  s" (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
        else Printf.sprintf "%8.0f ns" ns
      in
      Printf.printf "%-36s %14s\n" name pretty)
    rows

let () =
  let argv = Array.to_list Sys.argv in
  let quick = List.mem "--quick" argv in
  let find_flag flag default = Bench_util.find_flag argv flag default in
  if List.mem "construction" argv then
    let out = find_flag "--construction-out" "BENCH_construction.json" in
    construction_bench ~quick ~out
  else if List.mem "resilience" argv then
    let out = find_flag "--resilience-out" "BENCH_resilience.json" in
    resilience_bench ~quick ~out
  else if List.mem "observability" argv then
    let out = find_flag "--observability-out" "BENCH_observability.json" in
    observability_bench ~quick ~out
  else if List.mem "scheduler" argv then
    let out = find_flag "--scheduler-out" "BENCH_scheduler.json" in
    let domains = int_of_string (find_flag "--domains" "4") in
    scheduler_bench ~quick ~out ~domains
  else if List.mem "kernels" argv then
    let out = find_flag "--kernels-out" "BENCH_kernels.json" in
    let domains = int_of_string (find_flag "--domains" "4") in
    kernels_bench ~quick ~out ~domains
  else begin
    let out = find_flag "--engine-out" "BENCH_engine.json" in
    if not quick then micro_benchmarks ();
    engine_bench ~quick ~out
  end
