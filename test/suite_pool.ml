(* Tests for the persistent domain pool scheduler and the cross-job column
   pool: bitwise result parity at any (domains, chunk), deterministic
   lowest-index failure reporting, pool restart after shutdown, nested
   batches, and seeded-vs-cold colgen objective equality. *)

module Prng = Sa_util.Prng
module Pool = Sa_core.Pool
module Bundle = Sa_val.Bundle
module Instance = Sa_core.Instance
module Lp = Sa_core.Lp_relaxation
module Rounding = Sa_core.Rounding
module Oracle = Sa_core.Oracle_solver
module Serialize = Sa_core.Serialize
module Workloads = Sa_exp.Workloads
module Engine = Sa_engine.Engine
module Workload = Sa_engine.Workload
module Eventlog = Sa_telemetry.Eventlog

let schedules =
  (* every (domains, chunk) combination the acceptance criteria name *)
  List.concat_map
    (fun d -> List.map (fun c -> (d, c)) [ Some 1; Some 8; None ])
    [ 1; 2; 4 ]

let schedule_label (d, c) =
  Printf.sprintf "d%d/%s" d
    (match c with Some c -> string_of_int c | None -> "adaptive")

(* ---------- scheduler parity ---------------------------------------------- *)

(* map_array must be bitwise Array.map for any schedule, including when the
   per-item work is derived from the index (the PRNG-stream convention). *)
let prop_map_array_parity =
  QCheck.Test.make ~name:"map_array bitwise parity at any (domains, chunk)"
    ~count:30
    QCheck.(pair small_nat (int_bound 1000))
    (fun (seed, n) ->
      let arr = Array.init n (fun i -> i + seed) in
      let f x =
        let g = Prng.create ~seed:(x * 7919) in
        Prng.float g 1.0
      in
      let expected = Array.map f arr in
      List.for_all
        (fun (domains, chunk) ->
          Pool.map_array ~domains ?chunk f arr = expected)
        schedules)

let test_map_array_skewed_parity () =
  (* heavily skewed item costs force actual stealing; results must not
     care *)
  let arr = Array.init 64 Fun.id in
  let f i =
    let spins = if i mod 16 = 0 then 20_000 else 10 in
    let acc = ref 0 in
    for j = 1 to spins do
      acc := (!acc + (i * j)) land 0xFFFF
    done;
    !acc
  in
  let expected = Array.map f arr in
  List.iter
    (fun sched ->
      let d, c = sched in
      Alcotest.(check (array int))
        (schedule_label sched) expected
        (Pool.map_array ~domains:d ?chunk:c f arr))
    schedules

let test_lowest_index_failure () =
  (* several items fail; the reported exception must be the lowest index
     regardless of scheduling.  On the pool path (domains >= 2) every item
     runs to completion before the batch reports; the domains = 1 fallback
     is plain sequential Array.map and stops at the first failure. *)
  let ran = Array.make 200 false in
  List.iter
    (fun (domains, chunk) ->
      Array.fill ran 0 (Array.length ran) false;
      let f i =
        ran.(i) <- true;
        if i mod 37 = 5 then failwith (Printf.sprintf "item %d" i);
        i
      in
      (match
         Pool.map_array ~domains ?chunk f (Array.init 200 Fun.id)
       with
      | _ -> Alcotest.fail "expected a failure"
      | exception Failure msg ->
          Alcotest.(check string)
            (schedule_label (domains, chunk))
            "item 5" msg);
      if domains >= 2 then
        Alcotest.(check bool)
          (schedule_label (domains, chunk) ^ " all items ran")
          true
          (Array.for_all Fun.id ran))
    schedules

let test_validation () =
  Alcotest.check_raises "bad domains"
    (Invalid_argument "Pool.map_array: domains must be >= 1") (fun () ->
      ignore (Pool.map_array ~domains:0 Fun.id [| 1 |]));
  Alcotest.check_raises "bad chunk"
    (Invalid_argument "Pool.map_array: chunk must be >= 1") (fun () ->
      ignore (Pool.map_array ~domains:2 ~chunk:0 Fun.id [| 1; 2 |]))

let test_pool_restart_after_shutdown () =
  let before = Pool.map_array ~domains:4 (fun i -> i * i) (Array.init 50 Fun.id) in
  Pool.shutdown (Pool.default ());
  Alcotest.(check int) "workers joined" 0 (Pool.worker_count (Pool.default ()));
  let after = Pool.map_array ~domains:4 (fun i -> i * i) (Array.init 50 Fun.id) in
  Alcotest.(check (array int)) "restarted pool agrees" before after;
  Alcotest.check_raises "explicit shut-down pool rejects work"
    (Invalid_argument "Pool: submitted to a shut-down pool") (fun () ->
      let p = Pool.create () in
      Pool.shutdown p;
      ignore (Pool.map_array ~pool:p ~domains:2 Fun.id [| 1; 2; 3 |]))

let test_nested_map_array () =
  (* rounding-style fan-out inside a pool item: must complete even though
     every worker may be busy with the outer batch *)
  let inst = Workloads.protocol_instance ~seed:3 ~n:12 ~k:2 () in
  let frac = Lp.solve_explicit inst in
  let outer =
    Pool.map_array ~domains:4
      (fun seed ->
        let inner = Rounding.solve_par ~domains:4 ~trials:4 ~seed inst frac in
        Sa_core.Allocation.value inst inner)
      (Array.init 8 Fun.id)
  in
  let seq =
    Array.init 8 (fun seed ->
        Sa_core.Allocation.value inst
          (Rounding.solve_par ~domains:1 ~trials:4 ~seed inst frac))
  in
  Alcotest.(check (array (float 0.0))) "nested = sequential" seq outer

(* ---------- engine-level parity ------------------------------------------- *)

let parity_specs =
  [
    Workload.spec ~model:Workload.Random_graph ~n:14 ~k:2 ~seed:9
      ~algorithm:Engine.Adaptive ~repeat:3 ();
    Workload.spec ~model:Workload.Random_graph ~n:12 ~k:2 ~seed:4
      ~algorithm:Engine.Lp_round ~repeat:2 ();
  ]

let run_batch_json ~domains ~chunk =
  let engine = Engine.create ~warm_start:false () in
  let jobs = Workload.expand engine parity_specs in
  let log = Eventlog.create () in
  Eventlog.install (Some log);
  Fun.protect
    ~finally:(fun () -> Eventlog.install None)
    (fun () ->
      let results, _ = Engine.run_batch ~domains ?chunk engine jobs in
      (Engine.results_to_json results, Eventlog.to_jsonl log))

let test_engine_parity_across_schedules () =
  let reference = run_batch_json ~domains:1 ~chunk:None in
  List.iter
    (fun sched ->
      let d, c = sched in
      let results, events = run_batch_json ~domains:d ~chunk:c in
      let ref_results, ref_events = reference in
      Alcotest.(check string)
        (schedule_label sched ^ " results bytes")
        ref_results results;
      Alcotest.(check string)
        (schedule_label sched ^ " event-log bytes")
        ref_events events)
    schedules

(* qcheck over seeds: Engine.run results and event logs are bitwise equal
   across domains 1/2/4 x chunk {1, 8, adaptive} for arbitrary workloads *)
let prop_engine_parity =
  QCheck.Test.make ~name:"engine batch bitwise parity (qcheck seeds)" ~count:6
    QCheck.(int_bound 1000)
    (fun seed ->
      let specs =
        [
          Workload.spec ~model:Workload.Random_graph ~n:10 ~k:2 ~seed:(seed + 1)
            ~algorithm:Engine.Adaptive ~repeat:2 ();
        ]
      in
      let run ~domains ~chunk =
        let engine = Engine.create ~warm_start:false () in
        let jobs = Workload.expand engine specs in
        let log = Eventlog.create () in
        Eventlog.install (Some log);
        Fun.protect
          ~finally:(fun () -> Eventlog.install None)
          (fun () ->
            let results, _ = Engine.run_batch ~domains ?chunk engine jobs in
            (Engine.results_to_json results, Eventlog.to_jsonl log))
      in
      let reference = run ~domains:1 ~chunk:None in
      List.for_all
        (fun (domains, chunk) -> run ~domains ~chunk = reference)
        schedules)

(* ---------- cross-job column pool ----------------------------------------- *)

let test_column_pool_hit_matches_cold () =
  let inst = Workloads.protocol_instance ~seed:17 ~n:14 ~k:3 () in
  let key = Serialize.conflict_fingerprint inst.Instance.conflict in
  let cold_frac, _cold_stats = Oracle.solve inst in
  let pool = Oracle.Column_pool.create () in
  let first_frac, first_stats = Oracle.solve ~column_pool:(pool, key) inst in
  Alcotest.(check int) "first solve seeds nothing" 0 first_stats.Oracle.seeded_columns;
  Alcotest.(check int) "one miss" 1 (Oracle.Column_pool.miss_count pool);
  let warm_frac, warm_stats = Oracle.solve ~column_pool:(pool, key) inst in
  Alcotest.(check int) "one hit" 1 (Oracle.Column_pool.hit_count pool);
  Alcotest.(check bool) "columns were seeded" true
    (warm_stats.Oracle.seeded_columns > 0);
  Alcotest.(check bool)
    (Printf.sprintf "rounds cut or equal (%d -> %d)" first_stats.Oracle.iterations
       warm_stats.Oracle.iterations)
    true
    (warm_stats.Oracle.iterations <= first_stats.Oracle.iterations);
  (* certified objective must be bitwise identical, seeded or not *)
  Alcotest.(check int64) "seeded objective bitwise = cold"
    (Int64.bits_of_float cold_frac.Lp.objective)
    (Int64.bits_of_float warm_frac.Lp.objective);
  Alcotest.(check int64) "pool-first objective bitwise = cold"
    (Int64.bits_of_float cold_frac.Lp.objective)
    (Int64.bits_of_float first_frac.Lp.objective)

let test_column_pool_reverify_rejects_foreign () =
  (* columns interned under one instance's fingerprint must be re-verified
     before entering another instance: a bidder with a restricted channel
     set silently rejects a pooled bundle it cannot hold *)
  let inst = Workloads.protocol_instance ~seed:23 ~n:10 ~k:2 () in
  let key = "forged-key" in
  let pool = Oracle.Column_pool.create () in
  (* forge garbage columns: out-of-range bidders and over-wide bundles *)
  Oracle.Column_pool.store pool key
    [ (-1, Bundle.full 2); (500, Bundle.full 2); (0, Bundle.full 2) ];
  let frac, _ = Oracle.solve ~column_pool:(pool, key) inst in
  let cold, _ = Oracle.solve inst in
  Alcotest.(check int64) "objective unaffected by garbage seeds"
    (Int64.bits_of_float cold.Lp.objective)
    (Int64.bits_of_float frac.Lp.objective)

let test_column_pool_lru_bounds () =
  let pool = Oracle.Column_pool.create ~max_keys:2 ~max_columns_per_key:3 () in
  let cols n = List.init n (fun i -> (i, Bundle.singleton 0)) in
  Oracle.Column_pool.store pool "a" (cols 5);
  Alcotest.(check int) "per-key truncation" 3
    (List.length (Oracle.Column_pool.find pool "a"));
  Oracle.Column_pool.store pool "b" (cols 1);
  Oracle.Column_pool.store pool "c" (cols 1);
  Alcotest.(check int) "max_keys bound" 2 (Oracle.Column_pool.entries pool);
  (* recency at eviction time: "a" touched before "b" and "c" were stored,
     so "a" is the least-recently-used victim and the younger keys stay *)
  Alcotest.(check int) "lru victim evicted" 0
    (List.length (Oracle.Column_pool.find pool "a"));
  Alcotest.(check int) "younger key kept" 1
    (List.length (Oracle.Column_pool.find pool "b"))

let run_oracle_batch ?(domains = 1) ~column_pool ~revalue_bids () =
  (* clique conflicts make the zero-price seed columns mutually exclusive,
     so cold colgen needs several pricing rounds — room for seeding to cut *)
  let specs =
    [
      Workload.spec ~model:Workload.Clique ~n:24 ~k:4 ~seed:9
        ~algorithm:Engine.Oracle_round ~repeat:4 ~revalue_bids ();
    ]
  in
  let engine = Engine.create ~warm_start:false ~column_pool () in
  let jobs = Workload.expand engine specs in
  let results, summary = Engine.run_batch ~domains engine jobs in
  (results, Engine.results_to_json results, summary)

let test_engine_oracle_exact_repeats () =
  (* exact repeats (same topology AND same bids): the seeded master starts
     from the donor's full column set, re-solves the identical LP over the
     identical column order, and must reproduce the cold run byte for
     byte — with strictly fewer colgen rounds *)
  let rp, with_pool, s_pool = run_oracle_batch ~column_pool:true ~revalue_bids:false () in
  let rc, without_pool, s_cold =
    run_oracle_batch ~column_pool:false ~revalue_bids:false ()
  in
  Alcotest.(check int) "all jobs on lp tier" 4 s_pool.Engine.served_lp;
  Alcotest.(check string) "results bytes identical pool on/off" without_pool
    with_pool;
  Array.iteri
    (fun i (r : Engine.result) ->
      Alcotest.(check int64)
        (Printf.sprintf "job %d objective bitwise = cold" i)
        (Int64.bits_of_float rc.(i).Engine.lp_objective)
        (Int64.bits_of_float r.Engine.lp_objective))
    rp;
  Alcotest.(check bool)
    (Printf.sprintf "pool cut total colgen rounds (%d -> %d)"
       s_cold.Engine.lp_iterations s_pool.Engine.lp_iterations)
    true
    (s_pool.Engine.lp_iterations < s_cold.Engine.lp_iterations)

let test_engine_oracle_pool_deterministic () =
  (* same-seed runs with the column pool on serialise identically at every
     domain count.  Which jobs find the pool warm depends on scheduling,
     but a seeded exact repeat reproduces its unseeded solve byte for byte,
     so every run must also match the one-domain bytes. *)
  let bytes domains =
    let _, json, _ =
      run_oracle_batch ~domains ~column_pool:true ~revalue_bids:false ()
    in
    json
  in
  let d1 = bytes 1 in
  List.iter
    (fun domains ->
      for pass = 1 to 2 do
        Alcotest.(check string)
          (Printf.sprintf "domains %d pass %d = domains 1" domains pass)
          d1 (bytes domains)
      done)
    [ 1; 2; 4 ]

let test_engine_oracle_revalued_repeats () =
  (* revalued repeats: same topology, fresh bids.  The seeded master holds
     different columns than the cold one, so the simplex takes a different
     arithmetic path to the same optimum — the certified objective must
     agree to solver tolerance (bitwise equality is the exact-repeat
     contract, tested above) *)
  let rp, _, s_pool = run_oracle_batch ~column_pool:true ~revalue_bids:true () in
  let rc, _, s_cold = run_oracle_batch ~column_pool:false ~revalue_bids:true () in
  Alcotest.(check int) "same job count" (Array.length rc) (Array.length rp);
  Array.iteri
    (fun i (r : Engine.result) ->
      let cold = rc.(i).Engine.lp_objective in
      let rel = abs_float (r.Engine.lp_objective -. cold) /. max 1.0 (abs_float cold) in
      Alcotest.(check bool)
        (Printf.sprintf "job %d certified objective = cold (rel err %.2e)" i rel)
        true (rel <= 1e-9))
    rp;
  Alcotest.(check bool) "pool does not add colgen rounds" true
    (s_pool.Engine.lp_iterations <= s_cold.Engine.lp_iterations)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_map_array_parity;
    Alcotest.test_case "map_array parity under skewed costs" `Quick
      test_map_array_skewed_parity;
    Alcotest.test_case "lowest-index failure deterministic" `Quick
      test_lowest_index_failure;
    Alcotest.test_case "map_array validation" `Quick test_validation;
    Alcotest.test_case "pool restarts after shutdown" `Quick
      test_pool_restart_after_shutdown;
    Alcotest.test_case "nested map_array does not deadlock" `Quick
      test_nested_map_array;
    Alcotest.test_case "engine parity across schedules" `Quick
      test_engine_parity_across_schedules;
    QCheck_alcotest.to_alcotest prop_engine_parity;
    Alcotest.test_case "column pool hit matches cold colgen" `Quick
      test_column_pool_hit_matches_cold;
    Alcotest.test_case "column pool re-verifies foreign columns" `Quick
      test_column_pool_reverify_rejects_foreign;
    Alcotest.test_case "column pool LRU bounds" `Quick test_column_pool_lru_bounds;
    Alcotest.test_case "engine oracle exact repeats byte-identical" `Quick
      test_engine_oracle_exact_repeats;
    Alcotest.test_case "engine oracle column pool same bytes at 1, 2, 4 domains"
      `Quick test_engine_oracle_pool_deterministic;
    Alcotest.test_case "engine oracle revalued repeats objective parity" `Quick
      test_engine_oracle_revalued_repeats;
  ]
