module Instance = Sa_core.Instance
module Allocation = Sa_core.Allocation
module Lp = Sa_core.Lp_relaxation
module Rounding = Sa_core.Rounding
module Greedy = Sa_core.Greedy
module Derand = Sa_core.Derand
module Pool = Sa_core.Pool
module Oracle_solver = Sa_core.Oracle_solver
module Serialize = Sa_core.Serialize
module Graph = Sa_graph.Graph
module Weighted = Sa_graph.Weighted
module Ordering = Sa_graph.Ordering
module Inductive = Sa_graph.Inductive
module Valuation = Sa_val.Valuation
module Online = Sa_core.Online
module Prng = Sa_util.Prng
module Timing = Sa_util.Timing
module Tel = Sa_telemetry.Metrics
module Trace = Sa_telemetry.Trace
module Eventlog = Sa_telemetry.Eventlog

let m_jobs = Tel.counter "engine.jobs"
let m_warm_used = Tel.counter "engine.warm_used"
let m_topo_hits = Tel.counter "engine.topology.hits"
let m_topo_misses = Tel.counter "engine.topology.misses"
let m_basis_lookups = Tel.counter "engine.basis.lookups"
let m_basis_hits = Tel.counter "engine.basis.hits"
let m_retries = Tel.counter "engine.job.retries"
let m_fb_greedy = Tel.counter "engine.fallback.greedy"
let m_fb_online = Tel.counter "engine.fallback.online"
let m_deadline = Tel.counter "engine.deadline_exceeded"
let m_failed = Tel.counter "engine.job.failed"
let m_faults = Tel.counter "engine.faults.injected"
let g_topo_entries = Tel.gauge "engine.topology.entries"
let g_basis_entries = Tel.gauge "engine.basis.entries"
let h_lp = Tel.histogram "engine.job.lp.seconds"
let h_round = Tel.histogram "engine.job.round.seconds"
let h_job = Tel.histogram "engine.job.seconds"
let h_attempt = Tel.histogram "engine.attempt.seconds"
let log_src = Logs.Src.create "sa.engine" ~doc:"Batch auction engine"
module Log = (val Logs.src_log log_src : Logs.LOG)

(* ------------------------------- job types ------------------------------ *)

type algorithm = Lp_round | Adaptive | Greedy_lp | Derand_seq | Oracle_round

let algorithm_name = function
  | Lp_round -> "lp-round"
  | Adaptive -> "adaptive"
  | Greedy_lp -> "greedy-lp"
  | Derand_seq -> "derand"
  | Oracle_round -> "oracle"

let algorithm_of_name = function
  | "lp-round" -> Some Lp_round
  | "adaptive" -> Some Adaptive
  | "greedy-lp" -> Some Greedy_lp
  | "derand" -> Some Derand_seq
  | "oracle" -> Some Oracle_round
  | _ -> None

type job = {
  id : int;
  instance : Instance.t;
  algorithm : algorithm;
  seed : int;
  trials : int;
  shape_key : string option;
      (* precomputed Serialize.shape_fingerprint; batch producers that know
         their jobs repeat a topology digest the graph once *)
}

let job ?(algorithm = Adaptive) ?(seed = 0) ?(trials = 4) ?shape_key ~id instance =
  if trials < 1 then invalid_arg "Engine.job: trials must be >= 1";
  { id; instance; algorithm; seed; trials; shape_key }

type job_timings = { lp_s : float; round_s : float; total_s : float }

(* ----------------------- robustness policy & tiers ----------------------- *)

type tier = Tier_lp | Tier_greedy | Tier_online

let tier_name = function
  | Tier_lp -> "lp"
  | Tier_greedy -> "greedy"
  | Tier_online -> "online"

type policy = {
  deadline_s : float option;
  pivot_budget : int option;
  max_retries : int;
  fallback : bool;
  faults : Faultgen.t option;
}

let default_policy =
  { deadline_s = None; pivot_budget = None; max_retries = 1; fallback = true;
    faults = None }

let policy ?deadline_s ?pivot_budget ?(max_retries = 1) ?(fallback = true)
    ?faults () =
  if max_retries < 0 then invalid_arg "Engine.policy: max_retries must be >= 0";
  (match deadline_s with
  | Some s when s < 0.0 -> invalid_arg "Engine.policy: deadline_s must be >= 0"
  | _ -> ());
  (match pivot_budget with
  | Some p when p < 1 -> invalid_arg "Engine.policy: pivot_budget must be >= 1"
  | _ -> ());
  { deadline_s; pivot_budget; max_retries; fallback; faults }

type result = {
  job_id : int;
  allocation : Allocation.t;
  welfare : float;
  lp_objective : float;
  lp_iterations : int;
  warm_start : bool;
  tier : tier option;
  guarantee : float;
  retries : int;
  failures : Failure.t list;
  timings : job_timings;
}

(* -------------------------------- caches -------------------------------- *)

type topology = { ordering : Ordering.t; rho : float }

type t = {
  warm_start : bool;
  lock : Mutex.t;
  topologies : (string, topology) Hashtbl.t;
  bases : (string, Sa_lp.Revised.basis) Hashtbl.t;
  columns : Oracle_solver.Column_pool.t option;
      (* cross-job column pool for oracle-algorithm jobs, keyed by conflict
         fingerprint (None = disabled) *)
  (* per-engine counters mirror the global telemetry registry; atomics make
     them safe to bump outside [lock] from any domain *)
  topology_hits : int Atomic.t;
  topology_misses : int Atomic.t;
  basis_lookups : int Atomic.t;
  basis_found : int Atomic.t;
}

let create ?(warm_start = true) ?(column_pool = true) () =
  {
    warm_start;
    lock = Mutex.create ();
    topologies = Hashtbl.create 16;
    bases = Hashtbl.create 64;
    columns =
      (if column_pool then Some (Oracle_solver.Column_pool.create ()) else None);
    topology_hits = Atomic.make 0;
    topology_misses = Atomic.make 0;
    basis_lookups = Atomic.make 0;
    basis_found = Atomic.make 0;
  }

let warm_start_enabled t = t.warm_start
let column_pool_enabled t = t.columns <> None

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* ----------------------------- topology cache ---------------------------- *)

let rho_node_limit = 500_000

let union_graph gs =
  let n = Graph.n gs.(0) in
  let g = Graph.create n in
  Array.iter (fun gj -> Graph.iter_edges gj (fun u v -> Graph.add_edge g u v)) gs;
  g

let compute_topology conflict =
  match conflict with
  | Instance.Unweighted g ->
      let pi, degeneracy = Inductive.degeneracy_ordering g in
      let rho =
        Float.max
          (float_of_int (max 1 degeneracy))
          (Inductive.rho_unweighted ~node_limit:rho_node_limit g pi).Inductive.rho
      in
      { ordering = pi; rho = Float.max 1.0 rho }
  | Instance.Edge_weighted wg ->
      let pi = Ordering.identity (Weighted.n wg) in
      let rho = (Inductive.rho_weighted ~node_limit:rho_node_limit wg pi).Inductive.rho in
      { ordering = pi; rho = Float.max 1.0 rho }
  | Instance.Per_channel gs ->
      let union = union_graph gs in
      let pi, _ = Inductive.degeneracy_ordering union in
      let rho =
        Array.fold_left
          (fun acc gj ->
            Float.max acc
              (Inductive.rho_unweighted ~node_limit:rho_node_limit gj pi).Inductive.rho)
          1.0 gs
      in
      { ordering = pi; rho }
  | Instance.Per_channel_weighted wgs ->
      let pi = Ordering.identity (Weighted.n wgs.(0)) in
      let rho =
        Array.fold_left
          (fun acc wg ->
            Float.max acc
              (Inductive.rho_weighted ~node_limit:rho_node_limit wg pi).Inductive.rho)
          1.0 wgs
      in
      { ordering = pi; rho }

let topology_of_conflict ?key t conflict =
  let key =
    match key with Some k -> k | None -> Serialize.conflict_fingerprint conflict
  in
  match locked t (fun () -> Hashtbl.find_opt t.topologies key) with
  | Some topo ->
      Atomic.incr t.topology_hits;
      Tel.incr m_topo_hits;
      topo
  | None ->
      (* computed outside the lock: ρ estimation is the expensive part and
         must not serialise the other domains *)
      let topo = compute_topology conflict in
      Atomic.incr t.topology_misses;
      Tel.incr m_topo_misses;
      locked t (fun () ->
          if not (Hashtbl.mem t.topologies key) then Hashtbl.add t.topologies key topo);
      topo

let prepare ?key t ~conflict ~k bidders =
  let topo = topology_of_conflict ?key t conflict in
  Instance.make ~conflict ~k ~bidders ~ordering:topo.ordering ~rho:topo.rho

(* -------------------------------- solving ------------------------------- *)

let run_algorithm job inst frac =
  Trace.with_span ~hist:h_round "core.round"
    ~attrs:
      [ ("algorithm", algorithm_name job.algorithm); ("n", string_of_int (Instance.n inst)) ]
  @@ fun () ->
  let g = Prng.create ~seed:job.seed in
  match job.algorithm with
  | Lp_round -> Rounding.solve ~trials:job.trials g inst frac
  | Adaptive | Oracle_round -> Rounding.solve_adaptive ~trials:job.trials g inst frac
  | Greedy_lp -> Greedy.from_lp inst frac
  | Derand_seq -> (
      match inst.Instance.conflict with
      | Instance.Unweighted _ -> Derand.algorithm1_derand inst frac
      | Instance.Edge_weighted _ -> Derand.algorithm23_derand inst frac
      | Instance.Per_channel _ | Instance.Per_channel_weighted _ ->
          invalid_arg "Engine: derand supports unweighted/edge-weighted instances only")

(* Certified approximation factor of the greedy fallback: the value-greedy
   rule over a ρ-inductive-independent conflict structure with k channels
   loses at most a factor k·(ρ+1) — each admitted bidder blocks at most ρ
   interference mass per channel among its successors, and splitting OPT
   per channel costs the extra k (the folklore inductive-independence
   greedy bound; cf. the paper's Section 4 greedy analysis). *)
let greedy_guarantee inst =
  float_of_int inst.Instance.k *. (inst.Instance.rho +. 1.0)

(* The online tier serves bidders in decreasing max-bundle-value order, so
   the single most valuable bidder is always considered first against an
   empty allocation and gets its best feasible bundle: welfare ≥ v_max ≥
   OPT/n.  A weak factor, but certified — and the tier cannot fail. *)
let online_order inst =
  let n = Instance.n inst in
  let value v = Valuation.max_value inst.Instance.bidders.(v) ~k:inst.Instance.k in
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      match compare (value b) (value a) with 0 -> compare a b | c -> c)
    order;
  order

let run_job_robust_impl t policy job =
  let inst = job.instance in
  let started = Timing.now () in
  Tel.incr m_jobs;
  Eventlog.emit "job_accepted"
    [
      ("algorithm", Eventlog.Str (algorithm_name job.algorithm));
      ("n", Eventlog.Int (Instance.n inst));
      ("k", Eventlog.Int inst.Instance.k);
      ("seed", Eventlog.Int job.seed);
    ];
  let deadline = Option.map (fun s -> started +. s) policy.deadline_s in
  let failures = ref [] in
  let retries = ref 0 in
  let lp_s_total = ref 0.0 in
  let record f =
    failures := f :: !failures;
    if Failure.is_timeout f then Tel.incr m_deadline
  in
  (* Draw all of an attempt's site Bernoullis up front, in the fixed order,
     so the stream position never depends on which site fires first. *)
  let attempt_faults attempt =
    match policy.faults with
    | None -> (false, false, false)
    | Some f ->
        let g = Faultgen.stream f ~job:job.id ~attempt in
        let draw site =
          let b = Faultgen.fires f g site in
          if b then begin
            Tel.incr m_faults;
            Eventlog.emit "fault_absorbed"
              [
                ("site", Eventlog.Str (Faultgen.site_name site));
                ("attempt", Eventlog.Int attempt);
              ]
          end;
          b
        in
        let warm = draw Faultgen.Warm_install in
        let lp = draw Faultgen.Lp_solve in
        let round = draw Faultgen.Round in
        (warm, lp, round)
  in
  let shape_key =
    if (not t.warm_start) || job.algorithm = Oracle_round then None
    else
      Some
        (match job.shape_key with
        | Some k -> k
        | None -> Serialize.shape_fingerprint inst)
  in
  (* Oracle jobs route the LP through colgen; with a column pool they key
     it on the conflict fingerprint (topology-only, so revalued repeats of
     the same graph still hit), computed once per job. *)
  let oracle_pool =
    match (job.algorithm, t.columns) with
    | Oracle_round, Some cp ->
        Some (cp, Serialize.conflict_fingerprint inst.Instance.conflict)
    | _ -> None
  in
  (* One LP-tier attempt.  Attempt 0 may warm-start from the basis cache;
     retries go cold (the cached basis is suspect after a failure) with a
     fresh rounding seed. *)
  let attempt_lp attempt =
    Trace.with_span ~hist:h_attempt "engine.attempt"
      ~attrs:[ ("attempt", string_of_int attempt) ]
    @@ fun () ->
    let fire_warm, fire_lp, fire_round = attempt_faults attempt in
    try
      let warm_basis =
        match shape_key with
        | Some key when attempt = 0 ->
            Atomic.incr t.basis_lookups;
            Tel.incr m_basis_lookups;
            let cached = locked t (fun () -> Hashtbl.find_opt t.bases key) in
            if cached <> None then begin
              Atomic.incr t.basis_found;
              Tel.incr m_basis_hits
            end;
            cached
        | _ -> None
      in
      if fire_lp then
        Failure.raise_ (Faultgen.injected ~site:Faultgen.Lp_solve ~job:job.id);
      let (frac, stats), lp_s =
        Timing.time (fun () ->
            match job.algorithm with
            | Oracle_round ->
                (* Column generation instead of the explicit LP.  Reported
                   [iterations] are colgen rounds (master re-solves), not
                   pivots; the per-attempt pivot budget is not threaded
                   through — the deadline is the binding control. *)
                let frac, ostats =
                  Oracle_solver.solve ?deadline ?column_pool:oracle_pool inst
                in
                ( frac,
                  {
                    Lp.basis = None;
                    iterations = ostats.Oracle_solver.iterations;
                    warm_start_used = false;
                  } )
            | _ ->
                Lp.solve_explicit_stats ?warm_start:warm_basis ?deadline
                  ?max_iters:policy.pivot_budget ~inject_warm_crash:fire_warm inst)
      in
      lp_s_total := !lp_s_total +. lp_s;
      (match (shape_key, stats.Lp.basis) with
      | Some key, Some basis ->
          locked t (fun () -> Hashtbl.replace t.bases key basis)
      | _ -> ());
      if stats.Lp.warm_start_used then Tel.incr m_warm_used;
      if fire_round then
        Failure.raise_ (Faultgen.injected ~site:Faultgen.Round ~job:job.id);
      let seed = job.seed + (9176 * attempt) in
      let alloc, round_s =
        Timing.time (fun () -> run_algorithm { job with seed } inst frac)
      in
      Tel.observe h_lp lp_s;
      Eventlog.emit "lp_solved"
        [
          ("attempt", Eventlog.Int attempt);
          ("objective", Eventlog.Float frac.Lp.objective);
          ("pivots", Eventlog.Int stats.Lp.iterations);
          ("warm", Eventlog.Bool stats.Lp.warm_start_used);
        ];
      Log.debug (fun m ->
          m "job %d (%s): lp %.4fs (%d pivots%s), round %.4fs" job.id
            (algorithm_name job.algorithm)
            lp_s stats.Lp.iterations
            (if stats.Lp.warm_start_used then ", warm" else "")
            round_s);
      Some (frac, stats, alloc, round_s)
    with e ->
      let f = Failure.of_exn ~stage:"engine.lp" e in
      record f;
      Log.debug (fun m ->
          m "job %d attempt %d failed: %s" job.id attempt (Failure.to_string f));
      None
  in
  let rec lp_tier attempt =
    match attempt_lp attempt with
    | Some _ as ok -> ok
    | None ->
        (* A deadline expiry dooms every further attempt (the budget is per
           job, not per attempt) and a malformed job fails identically each
           time — skip straight to the fallback chain for both. *)
        let fatal =
          match !failures with
          | (Timeout _ | Malformed_job _) :: _ -> true
          | _ -> false
        in
        if fatal || attempt >= policy.max_retries then None
        else begin
          incr retries;
          Tel.incr m_retries;
          Eventlog.emit "retry"
            [
              ("attempt", Eventlog.Int (attempt + 1));
              ( "cause",
                Eventlog.Str
                  (match !failures with f :: _ -> Failure.label f | [] -> "?")
              );
            ];
          lp_tier (attempt + 1)
        end
  in
  let finish ~alloc ~tier ~guarantee ~lp_objective ~lp_iterations ~warm_start
      ~round_s =
    let tier_label = match tier with Some tr -> tier_name tr | None -> "failed" in
    Trace.add_attr "tier" tier_label;
    Trace.add_attr "retries" (string_of_int !retries);
    Eventlog.emit "tier_chosen"
      [
        ("tier", Eventlog.Str tier_label);
        ("retries", Eventlog.Int !retries);
        ("failures", Eventlog.Int (List.length !failures));
      ];
    if tier <> None then
      Eventlog.emit "guarantee_certified"
        [
          ("tier", Eventlog.Str tier_label);
          ("factor", Eventlog.Float guarantee);
          ("welfare", Eventlog.Float (Allocation.value inst alloc));
        ];
    {
      job_id = job.id;
      allocation = alloc;
      welfare = Allocation.value inst alloc;
      lp_objective;
      lp_iterations;
      warm_start;
      tier;
      guarantee;
      retries = !retries;
      failures = List.rev !failures;
      timings =
        { lp_s = !lp_s_total; round_s; total_s = Timing.now () -. started };
    }
  in
  match lp_tier 0 with
  | Some (frac, stats, alloc, round_s) ->
      finish ~alloc ~tier:(Some Tier_lp) ~guarantee:(Rounding.guarantee inst)
        ~lp_objective:frac.Lp.objective ~lp_iterations:stats.Lp.iterations
        ~warm_start:stats.Lp.warm_start_used ~round_s
  | None when not policy.fallback ->
      Tel.incr m_failed;
      finish
        ~alloc:(Allocation.empty (Instance.n inst))
        ~tier:None ~guarantee:infinity ~lp_objective:0.0 ~lp_iterations:0
        ~warm_start:false ~round_s:0.0
  | None -> (
      (* Fallback tiers deliberately ignore the deadline: they are cheap
         (no LP) and their job is to guarantee completion. *)
      let fire_greedy =
        match policy.faults with
        | None -> false
        | Some f ->
            let g =
              Faultgen.stream f ~job:job.id ~attempt:(policy.max_retries + 1)
            in
            let b = Faultgen.fires f g Faultgen.Greedy in
            if b then begin
              Tel.incr m_faults;
              Eventlog.emit "fault_absorbed"
                [
                  ("site", Eventlog.Str (Faultgen.site_name Faultgen.Greedy));
                  ("attempt", Eventlog.Int (policy.max_retries + 1));
                ]
            end;
            b
      in
      let greedy_result =
        try
          if fire_greedy then
            Failure.raise_ (Faultgen.injected ~site:Faultgen.Greedy ~job:job.id);
          let alloc, round_s = Timing.time (fun () -> Greedy.by_value inst) in
          Some (alloc, round_s)
        with e ->
          record (Failure.of_exn ~stage:"engine.greedy" e);
          None
      in
      match greedy_result with
      | Some (alloc, round_s) ->
          Tel.incr m_fb_greedy;
          finish ~alloc ~tier:(Some Tier_greedy)
            ~guarantee:(greedy_guarantee inst) ~lp_objective:0.0
            ~lp_iterations:0 ~warm_start:false ~round_s
      | None ->
          (* Last tier: online first-fit in decreasing-value order.  Never
             injected, never raises — total by construction. *)
          Tel.incr m_fb_online;
          let r, round_s =
            Timing.time (fun () ->
                Online.first_fit inst ~order:(online_order inst))
          in
          finish ~alloc:r.Online.allocation ~tier:(Some Tier_online)
            ~guarantee:(float_of_int (Instance.n inst)) ~lp_objective:0.0
            ~lp_iterations:0 ~warm_start:false ~round_s)

(* The public entry wraps the implementation in the ambient observability
   scopes: the job's event-log scope (so nested layers' emits carry this
   job id) and a root span carrying the job's identity, to which [finish]
   attaches the chosen tier and retry count. *)
let run_job_robust t policy job =
  Eventlog.with_job job.id @@ fun () ->
  Trace.with_span ~hist:h_job "engine.job"
    ~attrs:
      [
        ("job", string_of_int job.id);
        ("algorithm", algorithm_name job.algorithm);
      ]
    (fun () -> run_job_robust_impl t policy job)

let run_job t job = run_job_robust t default_policy job

(* ------------------------------- batch runs ------------------------------ *)

type summary = {
  jobs : int;
  total_welfare : float;
  total_lp_objective : float;
  lp_iterations : int;
  warm_hits : int;
  lp_seconds : float;
  round_seconds : float;
  wall_seconds : float;
  topology_hits : int;
  topology_misses : int;
  basis_entries : int;
  served_lp : int;
  served_greedy : int;
  served_online : int;
  failed : int;
  retries : int;
  deadline_hits : int;
}

let summarize (eng : t) results ~wall =
  let acc =
    Array.fold_left
      (fun (w, o, it, wh, ls, rs) r ->
        ( w +. r.welfare,
          o +. r.lp_objective,
          it + r.lp_iterations,
          wh + (if r.warm_start then 1 else 0),
          ls +. r.timings.lp_s,
          rs +. r.timings.round_s ))
      (0.0, 0.0, 0, 0, 0.0, 0.0) results
  in
  let w, o, it, wh, ls, rs = acc in
  let count p = Array.fold_left (fun n r -> if p r then n + 1 else n) 0 results in
  let sum f = Array.fold_left (fun n r -> n + f r) 0 results in
  {
    jobs = Array.length results;
    total_welfare = w;
    total_lp_objective = o;
    lp_iterations = it;
    warm_hits = wh;
    lp_seconds = ls;
    round_seconds = rs;
    wall_seconds = wall;
    topology_hits = Atomic.get eng.topology_hits;
    topology_misses = Atomic.get eng.topology_misses;
    basis_entries = Hashtbl.length eng.bases;
    served_lp = count (fun r -> r.tier = Some Tier_lp);
    served_greedy = count (fun r -> r.tier = Some Tier_greedy);
    served_online = count (fun r -> r.tier = Some Tier_online);
    failed = count (fun r -> r.tier = None);
    retries = sum (fun r -> r.retries);
    deadline_hits =
      sum (fun r ->
          List.length (List.filter Failure.is_timeout r.failures));
  }

let publish_cache_gauges t =
  let topo, bases =
    locked t (fun () -> (Hashtbl.length t.topologies, Hashtbl.length t.bases))
  in
  Tel.set_gauge g_topo_entries (float_of_int topo);
  Tel.set_gauge g_basis_entries (float_of_int bases)

let run_batch ?(domains = 1) ?chunk ?(policy = default_policy) t jobs =
  let arr = Array.of_list jobs in
  let results, wall =
    Timing.time (fun () ->
        Pool.map_array ~domains ?chunk (run_job_robust t policy) arr)
  in
  publish_cache_gauges t;
  let summary = summarize t results ~wall in
  Log.info (fun m ->
      m "batch: %d jobs in %.3fs (lp %.3fs, round %.3fs, warm %d/%d)"
        summary.jobs summary.wall_seconds summary.lp_seconds
        summary.round_seconds summary.warm_hits summary.jobs);
  (results, summary)

let summary_to_json ?(extra = []) s =
  let extra_fields =
    String.concat ""
      (List.map (fun (key, json) -> Printf.sprintf ",\"%s\":%s" key json) extra)
  in
  Printf.sprintf
    "{\"jobs\":%d,\"total_welfare\":%.6f,\"total_lp_objective\":%.6f,\
     \"lp_iterations\":%d,\"warm_hits\":%d,\"lp_seconds\":%.6f,\
     \"round_seconds\":%.6f,\"wall_seconds\":%.6f,\"topology_hits\":%d,\
     \"topology_misses\":%d,\"basis_entries\":%d,\"served_lp\":%d,\
     \"served_greedy\":%d,\"served_online\":%d,\"failed\":%d,\"retries\":%d,\
     \"deadline_hits\":%d%s}"
    s.jobs s.total_welfare s.total_lp_objective s.lp_iterations s.warm_hits
    s.lp_seconds s.round_seconds s.wall_seconds s.topology_hits s.topology_misses
    s.basis_entries s.served_lp s.served_greedy s.served_online s.failed
    s.retries s.deadline_hits extra_fields

(* Per-job records, timing-free so two same-seed runs serialise to the same
   bytes — the determinism contract `scripts/check.sh` diffs on.  Failed
   jobs are emitted (status "failed"), not silently dropped. *)
let results_to_json results =
  let buf = Buffer.create (64 * Array.length results) in
  Buffer.add_char buf '[';
  Array.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      let status, tier =
        match r.tier with
        | None -> ("failed", "none")
        | Some tr -> ("ok", tier_name tr)
      in
      let failures =
        String.concat ","
          (List.map (fun f -> Printf.sprintf "\"%s\"" (Failure.label f)) r.failures)
      in
      Buffer.add_string buf
        (Printf.sprintf
           "{\"job\":%d,\"status\":\"%s\",\"tier\":\"%s\",\"welfare\":%.6f,\
            \"lp_objective\":%.6f,\"guarantee\":%s,\"retries\":%d,\
            \"failures\":[%s]}"
           r.job_id status tier r.welfare r.lp_objective
           (if Float.is_finite r.guarantee then
              Printf.sprintf "%.6f" r.guarantee
            else "null")
           r.retries failures))
    results;
  Buffer.add_char buf ']';
  Buffer.contents buf

let pp_summary fmt s =
  Format.fprintf fmt
    "jobs %d  welfare %.3f  lp-ub %.3f  pivots %d  warm-hits %d/%d@\n\
     lp %.3fs  round %.3fs  wall %.3fs  topo-cache %d hit / %d miss  bases %d@\n\
     tiers lp %d / greedy %d / online %d  failed %d  retries %d  deadline %d"
    s.jobs s.total_welfare s.total_lp_objective s.lp_iterations s.warm_hits s.jobs
    s.lp_seconds s.round_seconds s.wall_seconds s.topology_hits s.topology_misses
    s.basis_entries s.served_lp s.served_greedy s.served_online s.failed
    s.retries s.deadline_hits
