(* Serve end-to-end benchmark.

   Drives the served path exactly as [auction serve --workload] does: a
   generated workload is expanded by [Workload.expand] on a fresh
   [Engine.create ()] (warm-start and column-pool defaults), and every job
   runs through [Engine.run_job_robust] under [Engine.default_policy].  The
   load is a closed loop with one client on one domain: each job is
   submitted when the previous one returns, and this file times every call
   itself.  Multi-domain scaling is not measured: on a shared two-core
   host only one domain gives steady numbers.

   A pass is one expansion plus every job once, like one [serve]
   invocation.  A run makes passes until [--seconds] have elapsed, and at
   least three (two with [--trace 1]).  Every pass replays the same jobs,
   so a job's latency is its median over the passes, and the tail is taken
   over those per-job medians: its percentile depends on the workload's
   job count only.

     dune exec --cache=disabled ./perfbench/main.exe -- \
       --workload geo-repeat --seed 1 --seconds 20 --trace 0

   The last line of standard output is one JSON object with the keys
   [correct], [attempted], [failed] and [metrics].  [--trace 0] reports
   the end-to-end metrics with production tracing off.  [--trace 1]
   alternates untraced and traced passes of the same jobs and reports the
   per-layer metrics from outside the program: timers here around the
   public calls, each job's [result.timings], telemetry counter deltas,
   and the spans the program already records ([engine.job],
   [engine.attempt], [lp.revised.solve], [core.colgen.solve],
   [graph.rho]).  Per-layer times and counts are per traced pass.

   Correctness gate (exit 1 when it fails): every allocation is feasible
   on its job's instance, no LP-tier job's welfare exceeds its LP
   objective beyond [Sa_lp.Tol.cert_eps], every pass runs exactly the
   expanded job count, and every pass serialises to the same
   [Engine.results_to_json] bytes.

   Layer times split each traced job's wall exactly: lp.staging_s is the
   job's [lp_s] outside the solver spans, lp.simplex_s every
   [lp.revised.solve] span, colgen.self_s the [core.colgen.solve] spans
   minus the simplex spans inside them, round.s the job's [round_s], and
   engine.other_s the rest of the wall.  setup.construct_s is the set-up
   wall minus its [graph.rho] spans and the shape fingerprints.

   Which end-to-end metric each per-layer metric should move, and where:
   - setup.construct_s, geom.grid.candidates (Workloads, Spatial, Disk,
     Protocol, Sinr_graph): setup_s on sinr-fresh.
   - topology.rho_s, topology.rho_estimates (Inductive, via
     Engine.topology_of_conflict and Workloads.sinr_fixed_instance): setup_s and
     peak_heap_mb on sinr-fresh; near zero on geo-repeat.
     topology.hit_ratio: setup_s where topologies repeat (geo-repeat).
   - serialize.fingerprint_s (Serialize, timed here on each batch's base
     instance): setup_s on sinr-fresh.  serialize.results_json_s: neither.
   - lp.staging_s, lp.staging_share (Lp_relaxation/Model staging):
     jobs_per_s and both latencies on geo-repeat; no change on sinr-fresh.
   - lp.simplex_s, lp.pivots, lp.us_per_pivot, lp.refactorizations,
     lp.basis_hit_ratio, lp.warm_install_ratio (Revised):
     job_latency_p50_ms on geo-repeat.
   - lp.workspace.grows, jobs.alloc_mb_per_job (Workspace): peak_heap_mb.
   - colgen.self_s, colgen.rounds, colgen.oracle_calls,
     colgen.columns_per_call, colgen.pool_hit_ratio (Oracle_solver,
     Column_pool): jobs_per_s on colgen-mix; zero on the other two.
   - round.s, round.trials, round.improvement_ratio, derand.candidates
     (Rounding, Derand, Greedy): job_latency_tail_ms on sinr-fresh and
     colgen-mix; may also move welfare_ratio.
   - engine.other_s, engine.retries (Engine): jobs_per_s everywhere.
   - trace.unattributed_share: share of traced job wall that no
     production span below [engine.attempt] covers (the baseline that
     span work shrinks).  trace.overhead_ratio: traced job wall over
     untraced job wall. *)

module Engine = Sa_engine.Engine
module Workload = Sa_engine.Workload
module Instance = Sa_core.Instance
module Allocation = Sa_core.Allocation
module Serialize = Sa_core.Serialize
module Metrics = Sa_telemetry.Metrics
module Trace = Sa_telemetry.Trace
module Timing = Sa_util.Timing
module Rules = Perfbench_rules.Rules

(* -------------------------------- workloads ------------------------------- *)

(* Batch [i] of every workload draws its topology from
   [Rules.derive_seed ~seed i]; the program only ever sees the specs. *)

(* Disk and protocol topologies at n = 500..1000, each served twice in a
   row (adaptive, then lp-round) with revalued repeats: the traffic the
   basis cache and the topology cache exist for.  LP staging and the
   warm-started simplex dominate job time; colgen never runs. *)
let geo_repeat ~seed =
  List.concat
    (List.mapi
       (fun i (model, n, k) ->
         let seed = Rules.derive_seed ~seed i in
         [
           Workload.spec ~model ~n ~k ~seed ~algorithm:Engine.Adaptive ~repeat:3 ();
           Workload.spec ~model ~n ~k ~seed ~algorithm:Engine.Lp_round ~repeat:3 ();
         ])
       [
         (Workload.Disk, 500, 8);
         (Workload.Protocol, 500, 8);
         (Workload.Disk, 750, 6);
         (Workload.Protocol, 750, 6);
         (Workload.Disk, 1000, 4);
         (Workload.Protocol, 1000, 4);
       ])

(* Edge-weighted Prop-11 SINR instances, every topology distinct and
   served twice, under adaptive, lp-round and derand in turn.  The
   weighted ρ estimate dominates set-up (its cost climbs steeply with n,
   hence n <= 110) and weighted rounding dominates the jobs; the LPs are
   small and half of them cold. *)
let sinr_fresh ~seed =
  List.init 18 (fun i ->
      Workload.spec ~model:Workload.Sinr
        ~n:(List.nth [ 80; 90; 100; 110 ] (i mod 4))
        ~k:3 ~seed:(Rules.derive_seed ~seed i)
        ~algorithm:
          (List.nth [ Engine.Adaptive; Engine.Lp_round; Engine.Derand_seq ] (i mod 3))
        ~repeat:2 ())

(* Column generation next to the rounding families it competes with:
   demand-oracle jobs on clique graphs with exact repeats (column-pool
   hits), revalued oracle jobs on clique and protocol graphs, derand on
   disk graphs and greedy-lp on random graphs.  Oracle_solver pricing and
   the column pool do the LP work here; explicit staging is small. *)
let colgen_mix ~seed =
  List.mapi
    (fun i (model, n, k, algorithm, repeat, revalue_bids) ->
      Workload.spec ~model ~n ~k ~seed:(Rules.derive_seed ~seed i) ~algorithm ~repeat
        ~revalue_bids ())
    [
      (Workload.Clique, 120, 6, Engine.Oracle_round, 7, false);
      (Workload.Clique, 120, 6, Engine.Oracle_round, 7, false);
      (Workload.Clique, 120, 6, Engine.Oracle_round, 4, true);
      (Workload.Protocol, 300, 6, Engine.Oracle_round, 4, true);
      (Workload.Protocol, 300, 6, Engine.Oracle_round, 4, true);
      (Workload.Random_graph, 400, 4, Engine.Greedy_lp, 5, true);
      (Workload.Random_graph, 400, 4, Engine.Greedy_lp, 5, true);
      (Workload.Disk, 80, 4, Engine.Derand_seq, 3, true);
      (Workload.Disk, 80, 4, Engine.Derand_seq, 3, true);
      (Workload.Disk, 80, 4, Engine.Derand_seq, 3, true);
      (Workload.Disk, 80, 4, Engine.Derand_seq, 3, true);
    ]

let workloads =
  [ ("geo-repeat", geo_repeat); ("sinr-fresh", sinr_fresh); ("colgen-mix", colgen_mix) ]

(* ---------------------------------- passes -------------------------------- *)

(* Layer times of a traced pass.  With each job's [lp_s] and [round_s] and
   the span sums, the five layer times add up to the traced job wall by
   construction; [check_layers] verifies that none of them is negative,
   i.e. that the solver spans lie inside the LP region and the LP and
   rounding regions inside the job. *)
type layers = {
  staging : float;
  simplex : float;
  colgen_self : float;
  round : float;
  other : float;
  rho : float;  (** every [graph.rho] span of the pass, set-up included *)
  span_covered : float;  (** job time inside solver and ρ spans *)
  job_spans : int;
}

(* What a run keeps of a pass: timings and sums, never its jobs or
   results, so the heap the run reports is the program's own. *)
type pass = {
  traced : bool;
  njobs : int;
  setup_s : float;
  walls : float array;  (** per job, timed around [run_job_robust] *)
  md5 : string;  (** of [Engine.results_to_json] *)
  errors : string list;  (** correctness gate *)
  welfare : float;
  lp_objective : float;
  lp_served : int;  (** jobs served by the LP tier *)
  alloc_bytes : float;  (** allocated while the jobs ran *)
  json_s : float;  (** [Engine.results_to_json] *)
  fingerprint_s : float;  (** timed here on each batch's base instance *)
  shape_fingerprint_s : float;  (** the part [Workload.expand] itself pays *)
  counters : (string * int) list;  (** deltas over the whole pass *)
  layers : layers option;  (** traced passes only *)
}

let sum = Array.fold_left ( +. ) 0.0
let sum_list f l = List.fold_left (fun a x -> a +. f x) 0.0 l
let ratio a b = if b > 0.0 then a /. b else 0.0

let counter_deltas before after =
  List.map
    (fun (name, v) ->
      (name, v - Option.value ~default:0 (List.assoc_opt name before.Metrics.counters)))
    after.Metrics.counters

(* The base instance of each batch is its first job. *)
let base_instances specs jobs =
  let _, bases =
    List.fold_left
      (fun (first, acc) s ->
        (first + s.Workload.repeat, jobs.(first).Engine.instance :: acc))
      (0, []) specs
  in
  List.rev bases

let served_by_lp r = r.Engine.tier = Some Engine.Tier_lp

(* Correctness gate of one pass; [reference] is the first pass's digest. *)
let gate ~expected ~reference ~md5 jobs results =
  let errors = ref [] in
  let error fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  if Array.length jobs <> expected then
    error "expanded %d jobs, the workload has %d" (Array.length jobs) expected;
  Array.iteri
    (fun i r ->
      if not (Allocation.is_feasible jobs.(i).Engine.instance r.Engine.allocation) then
        error "job %d: allocation infeasible" r.Engine.job_id;
      let slack = Sa_lp.Tol.cert_eps *. Float.max 1.0 (Float.abs r.Engine.lp_objective) in
      if served_by_lp r && r.Engine.welfare > r.Engine.lp_objective +. slack then
        error "job %d: welfare %.9f exceeds LP objective %.9f" r.Engine.job_id
          r.Engine.welfare r.Engine.lp_objective)
    results;
  (match reference with
  | Some ref_md5 when ref_md5 <> md5 ->
      error "results differ between passes of the same jobs (md5 %s vs %s)" md5 ref_md5
  | _ -> ());
  List.rev !errors

let under name by_id sp =
  let rec up = function
    | None -> false
    | Some id -> (
        match Hashtbl.find_opt by_id id with
        | None -> false
        | Some p -> p.Trace.name = name || up p.Trace.parent)
  in
  up sp.Trace.parent

let layers_of spans results walls =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun sp -> Hashtbl.replace by_id sp.Trace.id sp) spans;
  let total ?(where = fun _ -> true) name =
    sum_list
      (fun sp -> if sp.Trace.name = name && where sp then sp.Trace.dur_s else 0.0)
      spans
  in
  let simplex = total "lp.revised.solve" and colgen = total "core.colgen.solve" in
  let simplex_in_colgen = total ~where:(under "core.colgen.solve" by_id) "lp.revised.solve" in
  let rho_in_jobs = total ~where:(under "engine.job" by_id) "graph.rho" in
  let lp_s = sum (Array.map (fun r -> r.Engine.timings.Engine.lp_s) results) in
  let round = sum (Array.map (fun r -> r.Engine.timings.Engine.round_s) results) in
  let simplex_outside = simplex -. simplex_in_colgen in
  {
    staging = lp_s -. simplex_outside -. colgen;
    simplex;
    colgen_self = colgen -. simplex_in_colgen;
    round;
    other = sum walls -. lp_s -. round;
    rho = total "graph.rho";
    span_covered = simplex_outside +. colgen +. rho_in_jobs;
    job_spans = List.length (List.filter (fun sp -> sp.Trace.name = "engine.job") spans);
  }

(* The attribution check of a traced pass: one [engine.job] span per job
   (the ring kept every span), and no negative layer time. *)
let check_layers ~njobs ~wall l =
  let errors = ref [] in
  if l.job_spans <> njobs then
    errors :=
      Printf.sprintf "trace kept %d engine.job spans for %d jobs" l.job_spans njobs
      :: !errors;
  List.iter
    (fun (name, v) ->
      if v < -1e-6 *. wall then
        errors := Printf.sprintf "layer %s is negative (%.6f s)" name v :: !errors)
    [
      ("lp.staging_s", l.staging);
      ("lp.simplex_s", l.simplex);
      ("colgen.self_s", l.colgen_self);
      ("round.s", l.round);
      ("engine.other_s", l.other);
    ];
  let total = l.staging +. l.simplex +. l.colgen_self +. l.round +. l.other in
  if Float.abs (total -. wall) > 1e-9 *. Float.max 1.0 wall then
    errors := Printf.sprintf "layers sum to %.6f s, job wall is %.6f s" total wall :: !errors;
  List.rev !errors

let run_pass ~specs ~expected ~reference ~traced =
  Trace.set_enabled traced;
  if traced then Trace.clear ();
  let before = Metrics.snapshot () in
  let engine = Engine.create () in
  let jobs, setup_s =
    Timing.time (fun () -> Array.of_list (Workload.expand engine specs))
  in
  let n = Array.length jobs in
  let walls = Array.make n 0.0 and results = Array.make n None in
  let alloc0 = Gc.allocated_bytes () in
  for i = 0 to n - 1 do
    let r, dt =
      Timing.time (fun () -> Engine.run_job_robust engine Engine.default_policy jobs.(i))
    in
    walls.(i) <- dt;
    results.(i) <- Some r
  done;
  let alloc_bytes = Gc.allocated_bytes () -. alloc0 in
  let results = Array.map Option.get results in
  let json, json_s = Timing.time (fun () -> Engine.results_to_json results) in
  let after = Metrics.snapshot () in
  let spans = if traced then Trace.recent () else [] in
  Trace.set_enabled false;
  let bases = if n = expected then base_instances specs jobs else [] in
  let shape_fingerprint_s =
    Timing.time_only (fun () ->
        List.iter (fun b -> ignore (Serialize.shape_fingerprint b)) bases)
  in
  let conflict_s =
    Timing.time_only (fun () ->
        List.iter (fun b -> ignore (Serialize.conflict_fingerprint b.Instance.conflict)) bases)
  in
  let md5 = Digest.to_hex (Digest.string json) in
  let layers = if traced then Some (layers_of spans results walls) else None in
  let errors =
    gate ~expected ~reference ~md5 jobs results
    @ match layers with Some l -> check_layers ~njobs:n ~wall:(sum walls) l | None -> []
  in
  {
    traced;
    njobs = n;
    setup_s;
    walls;
    md5;
    errors;
    welfare = sum (Array.map (fun r -> r.Engine.welfare) results);
    lp_objective = sum (Array.map (fun r -> r.Engine.lp_objective) results);
    lp_served = Array.fold_left (fun a r -> if served_by_lp r then a + 1 else a) 0 results;
    alloc_bytes;
    json_s;
    fingerprint_s = shape_fingerprint_s +. conflict_s;
    shape_fingerprint_s;
    counters = counter_deltas before after;
    layers;
  }

(* --------------------------------- metrics -------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* Per-job latency: the median of the job's passes. *)
let job_medians passes =
  let n = (List.hd passes).njobs in
  Array.init n (fun i ->
      Rules.median (Array.of_list (List.map (fun p -> p.walls.(i)) passes)))

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let end_to_end passes =
  let attempted = List.fold_left (fun a p -> a + p.njobs) 0 passes in
  let lp_jobs = List.fold_left (fun a p -> a + p.lp_served) 0 passes in
  let medians = job_medians passes in
  let tail_p, tail_v =
    match Rules.tail medians with
    | Some t -> t
    | None -> failwith "workload has fewer than 11 jobs: no tail percentile"
  in
  let first = List.hd passes in
  let attempted_f = float_of_int attempted in
  let metrics =
    [
      m "setup_s" "s" (Rules.median (Array.of_list (List.map (fun p -> p.setup_s) passes)));
      m "jobs_per_s" "1/s" (attempted_f /. sum_list (fun p -> sum p.walls) passes);
      m "job_latency_p50_ms" "ms" (1e3 *. Rules.median medians);
      m "job_latency_tail_ms" "ms" (1e3 *. tail_v);
      m "welfare_ratio" "ratio" (first.welfare /. first.lp_objective);
      m "lp_served_share" "ratio" (float_of_int lp_jobs /. attempted_f);
      m "peak_heap_mb" "MB" (peak_heap_mb ());
    ]
  in
  let notes =
    [
      Printf.sprintf "job latency: %d jobs per pass, each the median of %d passes; tail = p%.1f"
        (Array.length medians) (List.length passes) tail_p;
      Printf.sprintf "job wall per pass: %s s"
        (String.concat " " (List.map (fun p -> Printf.sprintf "%.3f" (sum p.walls)) passes));
      Printf.sprintf "degraded_share %.6f (jobs not served by the LP tier / jobs attempted)"
        (1.0 -. (float_of_int lp_jobs /. attempted_f));
    ]
  in
  (metrics, notes)

let per_layer passes =
  let traced = List.filter (fun p -> p.traced) passes in
  let untraced = List.filter (fun p -> not p.traced) passes in
  let npass = float_of_int (List.length traced) in
  let per_pass f = sum_list f traced /. npass in
  let counter name =
    per_pass (fun p -> float_of_int (Option.value ~default:0 (List.assoc_opt name p.counters)))
  in
  let layer f = per_pass (fun p -> match p.layers with Some l -> f l | None -> 0.0) in
  let wall = per_pass (fun p -> sum p.walls) in
  let simplex = layer (fun l -> l.simplex) in
  let rho = layer (fun l -> l.rho) in
  let staging = layer (fun l -> l.staging) in
  let topo_hits = counter "engine.topology.hits" in
  let pool_hits = counter "core.colgen.pool.hits" in
  let counter_ratio a b = ratio (counter a) (counter b) in
  [
    m "jobs.wall_s" "s" wall;
    m "setup.construct_s" "s" (per_pass (fun p -> p.setup_s -. p.shape_fingerprint_s) -. rho);
    m "geom.grid.candidates" "count" (counter "geom.grid.candidates");
    m "topology.rho_s" "s" rho;
    m "topology.rho_estimates" "count" (counter "graph.rho.estimates");
    m "topology.hit_ratio" "ratio"
      (ratio topo_hits (topo_hits +. counter "engine.topology.misses"));
    m "serialize.fingerprint_s" "s" (per_pass (fun p -> p.fingerprint_s));
    m "serialize.results_json_s" "s" (per_pass (fun p -> p.json_s));
    m "lp.staging_s" "s" staging;
    m "lp.staging_share" "ratio" (ratio staging wall);
    m "lp.simplex_s" "s" simplex;
    m "lp.pivots" "count" (counter "lp.revised.pivots");
    m "lp.us_per_pivot" "us" (1e6 *. ratio simplex (counter "lp.revised.pivots"));
    m "lp.refactorizations" "count" (counter "lp.revised.refactorizations");
    m "lp.basis_hit_ratio" "ratio" (counter_ratio "engine.basis.hits" "engine.basis.lookups");
    m "lp.warm_install_ratio" "ratio"
      (counter_ratio "lp.revised.warm_installs" "lp.revised.warm_attempts");
    m "lp.workspace.grows" "count" (counter "lp.workspace.grows");
    m "jobs.alloc_mb_per_job" "MB"
      (per_pass (fun p -> p.alloc_bytes /. float_of_int p.njobs) /. 1e6);
    m "colgen.self_s" "s" (layer (fun l -> l.colgen_self));
    m "colgen.rounds" "count" (counter "core.colgen.rounds");
    m "colgen.oracle_calls" "count" (counter "core.colgen.oracle_calls");
    m "colgen.columns_per_call" "ratio"
      (counter_ratio "core.colgen.columns" "core.colgen.oracle_calls");
    m "colgen.pool_hit_ratio" "ratio"
      (ratio pool_hits (pool_hits +. counter "core.colgen.pool.misses"));
    m "round.s" "s" (layer (fun l -> l.round));
    m "round.trials" "count" (counter "core.rounding.trials");
    m "round.improvement_ratio" "ratio"
      (counter_ratio "core.rounding.improvements" "core.rounding.trials");
    m "derand.candidates" "count" (counter "core.derand.candidates");
    m "engine.other_s" "s" (layer (fun l -> l.other));
    m "engine.retries" "count" (counter "engine.job.retries");
    m "trace.unattributed_share" "ratio" (1.0 -. ratio (layer (fun l -> l.span_covered)) wall);
    m "trace.overhead_ratio" "ratio"
      (ratio (sum_list (fun p -> sum p.walls) traced)
         (sum_list (fun p -> sum p.walls) untraced));
  ]

(* ----------------------------------- main --------------------------------- *)

let usage = "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME geo-repeat, sinr-fresh or colgen-mix");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measuring time (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let build =
    match List.assoc_opt !workload workloads with
    | Some b -> b
    | None ->
        prerr_endline ("unknown --workload; expected one of: "
                       ^ String.concat ", " (List.map fst workloads));
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
  if not (!seconds > 0.0) then (prerr_endline "--seconds must be positive"; exit 2);
  let traced_run = !trace = 1 in
  let specs = build ~seed:!seed in
  let expected = List.fold_left (fun a s -> a + s.Workload.repeat) 0 specs in
  (* Room for every span of a pass: [check_layers] fails if the ring wraps. *)
  if traced_run then Trace.set_capacity (1 lsl 18);
  let started = Timing.now () in
  let min_passes = if traced_run then 2 else 3 in
  let rec loop acc reference k =
    let elapsed = Timing.now () -. started in
    (* traced runs alternate untraced and traced passes and end on a traced
       one, so both halves see the same number of passes *)
    if k >= min_passes && elapsed >= !seconds && ((not traced_run) || k mod 2 = 0) then
      List.rev acc
    else
      let p = run_pass ~specs ~expected ~reference ~traced:(traced_run && k mod 2 = 1) in
      loop (p :: acc) (Some (Option.value reference ~default:p.md5)) (k + 1)
  in
  let passes = loop [] None 0 in
  let first = List.hd passes in
  let metrics, notes = if traced_run then (per_layer passes, []) else end_to_end passes in
  let errors = List.concat_map (fun p -> p.errors) passes in
  Printf.printf "workload %s  seed %d  passes %d  jobs/pass %d  (%d batches)\n" !workload !seed
    (List.length passes) first.njobs (List.length specs);
  Printf.printf "lp_objective_sum %.6f\n" first.lp_objective;
  Printf.printf "results_md5 %s\n" first.md5;
  List.iter print_endline notes;
  List.iter (fun m -> Printf.printf "  %-26s %14.6f %s\n" m.name m.value m.unit_) metrics;
  List.iter (fun e -> Printf.printf "correctness: %s\n" e) errors;
  List.iter
    (fun m ->
      if not (Rules.valid_metric_name m.name) then failwith ("bad metric name " ^ m.name))
    metrics;
  let attempted = List.fold_left (fun a p -> a + p.njobs) 0 passes in
  let failed = List.fold_left (fun a p -> a + p.njobs - p.lp_served) 0 passes in
  let correct = errors = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
              (Rules.json_number m.value) m.unit_)
          metrics));
  if not correct then exit 1
