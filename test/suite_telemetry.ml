(* Telemetry registry, exporters and tracing (lib/telemetry).

   The load-bearing property is domain-safety: counter totals must be
   EXACT — not approximately right — when increments race across the
   domains of Parallel.map_array, because scripts/check.sh diffs counter
   blocks across --domains values byte-for-byte. *)

module Metrics = Sa_telemetry.Metrics
module Trace = Sa_telemetry.Trace
module Export = Sa_telemetry.Export
module Parallel = Sa_core.Parallel
module Timing = Sa_util.Timing

let test_counter_exact_across_domains () =
  List.iter
    (fun domains ->
      let registry = Metrics.create () in
      let c = Metrics.counter ~registry "test.shard.hits" in
      let per_task = 1_000 in
      let tasks = Array.init 64 Fun.id in
      ignore
        (Parallel.map_array ~domains
           (fun _ ->
             for _ = 1 to per_task do
               Metrics.incr c
             done)
           tasks);
      Alcotest.(check int)
        (Printf.sprintf "%d domains exact" domains)
        (Array.length tasks * per_task)
        (Metrics.counter_value c))
    [ 1; 2; 3; 4; 8 ]

let prop_counter_add_exact =
  QCheck.Test.make ~name:"counter total = sum of racing adds" ~count:30
    QCheck.(pair (int_range 1 8) (list_of_size (Gen.return 32) (int_range 0 50)))
    (fun (domains, amounts) ->
      let registry = Metrics.create () in
      let c = Metrics.counter ~registry "test.prop.adds" in
      let arr = Array.of_list amounts in
      ignore (Parallel.map_array ~domains (fun n -> Metrics.add c n) arr);
      Metrics.counter_value c = Array.fold_left ( + ) 0 arr)

let test_histogram_exact_across_domains () =
  let registry = Metrics.create () in
  let h =
    Metrics.histogram ~registry ~buckets:[| 1.0; 2.0; 4.0 |] "test.shard.obs"
  in
  (* 0.5 -> bucket <=1, 1.5 -> <=2, 8.0 -> +inf overflow *)
  let samples = Array.init 90 (fun i -> [| 0.5; 1.5; 8.0 |].(i mod 3)) in
  ignore (Parallel.map_array ~domains:4 (Metrics.observe h) samples);
  Alcotest.(check int) "count" 90 (Metrics.histogram_count h);
  Alcotest.(check (float 1e-9)) "sum" (30.0 *. (0.5 +. 1.5 +. 8.0))
    (Metrics.histogram_sum h);
  let view = Metrics.snapshot ~registry () in
  match Metrics.find_histogram view "test.shard.obs" with
  | None -> Alcotest.fail "histogram missing from snapshot"
  | Some hv ->
      Alcotest.(check (array int)) "per-bucket counts" [| 30; 30; 0; 30 |]
        hv.Metrics.counts

let test_gauge_ops () =
  let registry = Metrics.create () in
  let g = Metrics.gauge ~registry "test.gauge" in
  Metrics.set_gauge g 2.5;
  Metrics.add_gauge g 0.75;
  Alcotest.(check (float 1e-12)) "set+add" 3.25 (Metrics.gauge_value g);
  (* concurrent add_gauge must not lose updates (CAS loop) *)
  ignore
    (Parallel.map_array ~domains:4
       (fun _ -> Metrics.add_gauge g 1.0)
       (Array.make 400 ()));
  Alcotest.(check (float 1e-9)) "racing adds" 403.25 (Metrics.gauge_value g)

let test_registration_idempotent_and_kind_safe () =
  let registry = Metrics.create () in
  let a = Metrics.counter ~registry "test.dup" in
  let b = Metrics.counter ~registry "test.dup" in
  Metrics.incr a;
  Metrics.incr b;
  Alcotest.(check int) "same metric" 2 (Metrics.counter_value a);
  (let raised =
     try
       ignore (Metrics.gauge ~registry "test.dup");
       false
     with Invalid_argument _ -> true
   in
   Alcotest.(check bool) "kind clash raises" true raised);
  let raised =
    try
      ignore (Metrics.counter ~registry "Bad Name!");
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "invalid name raises" true raised;
  let raised =
    try
      Metrics.add a (-1);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "negative add raises" true raised

let test_reset_zeroes_keeps_schema () =
  let registry = Metrics.create () in
  let c = Metrics.counter ~registry "test.reset.c" in
  let g = Metrics.gauge ~registry "test.reset.g" in
  let h = Metrics.histogram ~registry "test.reset.h" in
  Metrics.add c 7;
  Metrics.set_gauge g 3.0;
  Metrics.observe h 0.01;
  Metrics.reset ~registry ();
  let view = Metrics.snapshot ~registry () in
  Alcotest.(check (option int)) "counter zero" (Some 0)
    (Metrics.find_counter view "test.reset.c");
  Alcotest.(check (option (float 0.0))) "gauge zero" (Some 0.0)
    (Metrics.find_gauge view "test.reset.g");
  Alcotest.(check int) "histogram count zero" 0 (Metrics.histogram_count h)

let test_snapshot_json_round_trip () =
  let registry = Metrics.create () in
  let c1 = Metrics.counter ~registry "rt.alpha" in
  let c2 = Metrics.counter ~registry "rt.beta" in
  let g = Metrics.gauge ~registry "rt.gamma" in
  let h = Metrics.histogram ~registry ~buckets:[| 0.001; 0.1 |] "rt.delta" in
  Metrics.add c1 42;
  Metrics.incr c2;
  Metrics.set_gauge g (1.0 /. 3.0);
  Metrics.observe h 0.0005;
  Metrics.observe h 17.25;
  let view = Metrics.snapshot ~registry () in
  let spans =
    [
      {
        Trace.id = 3;
        parent = None;
        name = "rt.span";
        start_s = 1.5;
        dur_s = 0.25;
        domain = 0;
        attrs = [ ("job", "0"); ("tier", "lp") ];
      };
      {
        Trace.id = 4;
        parent = Some 3;
        name = "rt.child";
        start_s = 1.6;
        dur_s = 0.05;
        domain = 0;
        attrs = [];
      };
    ]
  in
  let json = Export.snapshot_to_json ~spans view in
  let view', spans' = Export.snapshot_of_json json in
  Alcotest.(check bool) "views equal" true (view = view');
  Alcotest.(check bool) "spans equal" true (spans = spans')

let test_snapshot_json_rejects_garbage () =
  List.iter
    (fun bad ->
      let raised =
        try
          ignore (Export.snapshot_of_json bad);
          false
        with Export.Parse_error _ -> true
      in
      Alcotest.(check bool) ("rejects " ^ bad) true raised)
    [ ""; "{"; "not json"; "{\"counters\": [}"; "{\"version\": 1" ]

let test_prometheus_format () =
  let registry = Metrics.create () in
  let c = Metrics.counter ~registry "prom.lp.pivots" in
  let h = Metrics.histogram ~registry ~buckets:[| 0.5 |] "prom.lat" in
  Metrics.add c 9;
  Metrics.observe h 0.1;
  Metrics.observe h 2.0;
  let text = Export.to_prometheus (Metrics.snapshot ~registry ()) in
  let contains needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counter line" true
    (contains "specauction_prom_lp_pivots 9");
  Alcotest.(check bool) "counter type" true
    (contains "# TYPE specauction_prom_lp_pivots counter");
  Alcotest.(check bool) "cumulative +Inf bucket" true
    (contains "le=\"+Inf\"} 2")

let test_trace_spans () =
  Trace.clear ();
  let registry = Metrics.create () in
  let h = Metrics.histogram ~registry "test.span.seconds" in
  let result = Trace.with_span ~hist:h "test.span" (fun () -> 1 + 1) in
  Alcotest.(check int) "body result" 2 result;
  Alcotest.(check int) "histogram observed" 1 (Metrics.histogram_count h);
  (match List.rev (Trace.recent ()) with
  | [] -> Alcotest.fail "no span recorded"
  | span :: _ ->
      Alcotest.(check string) "span name" "test.span" span.Trace.name;
      Alcotest.(check bool) "duration >= 0" true (span.Trace.dur_s >= 0.0));
  (* spans survive exceptions *)
  Trace.clear ();
  (try
     Trace.with_span ~hist:h "test.span.raise" (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "observed on exception" 2 (Metrics.histogram_count h);
  Alcotest.(check int) "span recorded on exception" 1
    (List.length (Trace.recent ()))

let test_timing_monotonic () =
  let prev = ref (Timing.now ()) in
  for _ = 1 to 1_000 do
    let t = Timing.now () in
    if t < !prev then Alcotest.fail "Timing.now went backwards";
    prev := t
  done;
  let _, dt = Timing.time (fun () -> Sys.opaque_identity (Array.make 1000 0)) in
  Alcotest.(check bool) "elapsed >= 0" true (dt >= 0.0)

let test_well_known_schema () =
  (* The default registry pre-registers the pipeline counters so snapshots
     carry the full schema even for binaries that never touch a path. *)
  let view = Metrics.snapshot () in
  List.iter
    (fun name ->
      if Metrics.find_counter view name = None then
        Alcotest.fail (name ^ " not pre-registered"))
    [
      "lp.revised.solves"; "lp.revised.pivots"; "core.colgen.oracle_calls";
      "core.rounding.trials"; "core.derand.candidates"; "graph.rho.estimates";
      "engine.topology.hits"; "engine.basis.lookups";
    ]

let suite =
  [
    Alcotest.test_case "counters exact across 1..8 domains" `Quick
      test_counter_exact_across_domains;
    QCheck_alcotest.to_alcotest prop_counter_add_exact;
    Alcotest.test_case "histogram exact across domains" `Quick
      test_histogram_exact_across_domains;
    Alcotest.test_case "gauge set/add, racing adds" `Quick test_gauge_ops;
    Alcotest.test_case "registration idempotent, kind/name safe" `Quick
      test_registration_idempotent_and_kind_safe;
    Alcotest.test_case "reset zeroes, keeps schema" `Quick
      test_reset_zeroes_keeps_schema;
    Alcotest.test_case "JSON snapshot round-trips" `Quick
      test_snapshot_json_round_trip;
    Alcotest.test_case "JSON parser rejects garbage" `Quick
      test_snapshot_json_rejects_garbage;
    Alcotest.test_case "prometheus exposition" `Quick test_prometheus_format;
    Alcotest.test_case "trace spans record and survive exceptions" `Quick
      test_trace_spans;
    Alcotest.test_case "Timing.now is monotone" `Quick test_timing_monotonic;
    Alcotest.test_case "well-known metrics pre-registered" `Quick
      test_well_known_schema;
  ]
