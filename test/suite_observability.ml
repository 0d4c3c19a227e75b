(* Observability suite: correlated tracing, the decision event log, the
   Chrome trace exporter and the scrape endpoint (PR 7 tentpole).

   The load-bearing properties: span parent/child links are exact (no
   orphans while the ring holds everything; children nest inside their
   parent's interval on the same domain, including under
   Pool.map_array), the event log renders byte-identically at any
   --domains value, the Chrome exporter emits schema-valid JSON for any
   span contents, and /metrics serves every well-known metric. *)

module Metrics = Sa_telemetry.Metrics
module Trace = Sa_telemetry.Trace
module Export = Sa_telemetry.Export
module Eventlog = Sa_telemetry.Eventlog
module Http = Sa_telemetry.Http
module Pool = Sa_core.Pool
module Workloads = Sa_exp.Workloads
module Engine = Sa_engine.Engine

(* Trace state is global: park the ring at a large capacity for a test and
   restore the default afterwards so later suites see pristine state. *)
let with_trace_capacity cap f =
  Trace.set_capacity cap;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_capacity 512;
      Trace.clear ())
    (fun () ->
      Trace.clear ();
      f ())

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

(* ---------- span hierarchy ------------------------------------------------ *)

let test_span_nesting_single_domain () =
  with_trace_capacity 1024 @@ fun () ->
  let registry = Metrics.create () in
  let h = Metrics.histogram ~registry "obs.nest.seconds" in
  Trace.with_span ~hist:h "outer" (fun () ->
      Trace.add_attr "tier" "lp";
      Trace.with_span ~hist:h "inner" (fun () ->
          Trace.with_span ~hist:h "leaf" ignore));
  match Trace.recent () with
  | [ leaf; inner; outer ] ->
      (* completion order: leaf, inner, outer *)
      Alcotest.(check string) "outer name" "outer" outer.Trace.name;
      Alcotest.(check bool) "outer is root" true (outer.Trace.parent = None);
      Alcotest.(check bool)
        "inner child of outer" true
        (inner.Trace.parent = Some outer.Trace.id);
      Alcotest.(check bool)
        "leaf child of inner" true
        (leaf.Trace.parent = Some inner.Trace.id);
      Alcotest.(check (list (pair string string)))
        "attr attached to open span"
        [ ("tier", "lp") ]
        outer.Trace.attrs
  | spans -> Alcotest.failf "expected 3 spans, got %d" (List.length spans)

let test_span_exception_still_recorded () =
  with_trace_capacity 64 @@ fun () ->
  let registry = Metrics.create () in
  let h = Metrics.histogram ~registry "obs.exn.seconds" in
  (try Trace.with_span ~hist:h "boom" (fun () -> failwith "x")
   with Failure _ -> ());
  (match Trace.recent () with
  | [ sp ] -> Alcotest.(check string) "span recorded on exn" "boom" sp.Trace.name
  | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans));
  Alcotest.(check bool) "stack popped" true (Trace.current_span_id () = None)

(* Parent/child well-formedness under domain sharding: no orphans, every
   child starts and ends within its parent's interval, and parent/child
   always share a domain (the ambient stack is domain-local). *)
let test_span_wellformed_across_domains () =
  with_trace_capacity 4096 @@ fun () ->
  let registry = Metrics.create () in
  let h = Metrics.histogram ~registry "obs.par.seconds" in
  ignore
    (Pool.map_array ~domains:4
       (fun i ->
         Trace.with_span ~hist:h "task" (fun () ->
             Trace.add_attr "task" (string_of_int i);
             Trace.with_span ~hist:h "sub" (fun () ->
                 ignore (Sys.opaque_identity (i * i)))))
       (Array.init 32 Fun.id));
  let spans = Trace.recent () in
  Alcotest.(check int) "all spans survive" 64 (List.length spans);
  let by_id = Hashtbl.create 64 in
  List.iter (fun sp -> Hashtbl.replace by_id sp.Trace.id sp) spans;
  List.iter
    (fun sp ->
      match sp.Trace.parent with
      | None -> Alcotest.(check string) "roots are tasks" "task" sp.Trace.name
      | Some pid -> (
          match Hashtbl.find_opt by_id pid with
          | None -> Alcotest.failf "orphan span %d (parent %d)" sp.Trace.id pid
          | Some parent ->
              Alcotest.(check string) "children are subs" "sub" sp.Trace.name;
              Alcotest.(check int) "same domain" parent.Trace.domain
                sp.Trace.domain;
              if sp.Trace.start_s +. 1e-9 < parent.Trace.start_s then
                Alcotest.fail "child starts before parent";
              if
                sp.Trace.start_s +. sp.Trace.dur_s
                > parent.Trace.start_s +. parent.Trace.dur_s +. 1e-6
              then Alcotest.fail "child outlives parent"))
    spans

let test_capacity_validation_and_wraparound () =
  with_trace_capacity 4 @@ fun () ->
  let raised =
    try
      Trace.set_capacity 0;
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "capacity 0 rejected" true raised;
  Alcotest.(check int) "capacity unchanged after reject" 4 (Trace.capacity ());
  let registry = Metrics.create () in
  let h = Metrics.histogram ~registry "obs.wrap.seconds" in
  for i = 1 to 7 do
    Trace.with_span ~hist:h (Printf.sprintf "s%d" i) ignore
  done;
  (* strictly oldest-recorded-first eviction: 7 spans through a ring of 4
     leave s4..s7, oldest first *)
  Alcotest.(check (list string))
    "last capacity spans, oldest first"
    [ "s4"; "s5"; "s6"; "s7" ]
    (List.map (fun sp -> sp.Trace.name) (Trace.recent ()))

(* ---------- chrome trace exporter (qcheck round-trip) --------------------- *)

let arbitrary_spans =
  let open QCheck in
  let name_gen =
    Gen.oneofl [ "engine.job"; "lp.revised.solve"; "we\"ird\n"; "x" ]
  in
  let attr_gen =
    Gen.oneofl
      [ []; [ ("tier", "lp") ]; [ ("job", "3"); ("esc", "a\"b\\c") ] ]
  in
  let span_gen =
    Gen.map
      (fun ((id, parent, name), (start_ms, dur_ms, domain, attrs)) ->
        {
          Trace.id = 1 + abs id;
          parent = (match parent with 0 -> None | p -> Some (abs p));
          name;
          start_s = float_of_int (abs start_ms) /. 1e3;
          dur_s = float_of_int (abs dur_ms) /. 1e3;
          domain = abs domain mod 8;
          attrs;
        })
      Gen.(
        pair
          (triple small_int small_int name_gen)
          (quad small_int small_int small_int attr_gen))
  in
  make
    ~print:(fun spans ->
      String.concat ";" (List.map (fun sp -> sp.Trace.name) spans))
    (Gen.list_size (Gen.int_range 0 40) span_gen)

let prop_chrome_schema_valid =
  QCheck.Test.make ~name:"chrome export validates for any spans" ~count:100
    arbitrary_spans (fun spans ->
      Export.validate_chrome (Export.spans_to_chrome spans)
      = List.length spans)

let prop_snapshot_spans_round_trip =
  QCheck.Test.make ~name:"snapshot round-trips hierarchical spans" ~count:50
    arbitrary_spans (fun spans ->
      let view = Metrics.snapshot ~registry:(Metrics.create ()) () in
      let _, spans' = Export.snapshot_of_json (Export.snapshot_to_json ~spans view) in
      spans = spans')

(* ---------- event log ----------------------------------------------------- *)

(* Schema: every line of to_jsonl parses as a JSON object, seq is the line
   number, and (job, per-job order) is preserved regardless of emission
   interleaving across jobs. *)
let prop_eventlog_jsonl_schema =
  QCheck.Test.make ~name:"event log renders schema-valid ordered JSONL"
    ~count:50
    QCheck.(list_of_size (Gen.int_range 0 20) (pair (int_range 0 5) small_nat))
    (fun emissions ->
      let t = Eventlog.create () in
      Eventlog.install (Some t);
      Fun.protect
        ~finally:(fun () -> Eventlog.install None)
        (fun () ->
          List.iter
            (fun (job, payload) ->
              Eventlog.with_job job (fun () ->
                  Eventlog.emit "e"
                    [
                      ("payload", Eventlog.Int payload);
                      ("text", Eventlog.Str "a\"b\n");
                      ("frac", Eventlog.Float 0.5);
                      ("flag", Eventlog.Bool true);
                    ]))
            emissions);
      let lines =
        String.split_on_char '\n' (Eventlog.to_jsonl t)
        |> List.filter (fun l -> l <> "")
      in
      List.length lines = List.length emissions
      && List.for_all2
           (fun seq line ->
             match Export.parse_json line with
             | Export.Obj fields ->
                 List.assoc_opt "seq" fields = Some (Export.Num (float_of_int seq))
                 && List.assoc_opt "kind" fields = Some (Export.Str "e")
                 && List.mem_assoc "job" fields
                 && List.assoc_opt "flag" fields = Some (Export.Bool true)
             | _ -> false)
           (List.init (List.length lines) Fun.id)
           lines
      &&
      (* jobs nondecreasing down the file (the canonical merge order) *)
      let jobs = List.map (fun (e : Eventlog.event) -> e.Eventlog.job) (Eventlog.events t) in
      List.sort compare jobs = jobs)

let test_eventlog_needs_scope_and_sink () =
  let t = Eventlog.create () in
  (* no sink installed: emit is a free no-op *)
  Eventlog.emit "ignored" [];
  Eventlog.install (Some t);
  Fun.protect
    ~finally:(fun () -> Eventlog.install None)
    (fun () ->
      (* sink installed but no ambient job: dropped, counted *)
      let dropped_before =
        Metrics.counter_value (Metrics.counter "telemetry.events.dropped")
      in
      Eventlog.emit "dropped" [];
      Alcotest.(check int) "dropped counted" (dropped_before + 1)
        (Metrics.counter_value (Metrics.counter "telemetry.events.dropped"));
      Eventlog.with_job 7 (fun () -> Eventlog.emit "kept" []);
      match Eventlog.events t with
      | [ e ] ->
          Alcotest.(check int) "job scope applied" 7 e.Eventlog.job;
          Alcotest.(check string) "kind kept" "kept" e.Eventlog.kind
      | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs))

(* Byte-identical logs at --domains 1 vs 4 on a real engine batch (cold
   engines: the shared warm-start cache is the one order-dependent piece). *)
let test_eventlog_domains_byte_identical () =
  let jobs =
    List.init 8 (fun id ->
        let inst =
          Workloads.protocol_instance ~seed:(1 + (id mod 3)) ~n:10 ~k:2 ()
        in
        Engine.job ~algorithm:Engine.Adaptive ~seed:(50 + id) ~trials:2 ~id inst)
  in
  let run domains =
    let t = Eventlog.create () in
    Eventlog.install (Some t);
    Fun.protect
      ~finally:(fun () -> Eventlog.install None)
      (fun () ->
        ignore
          (Engine.run_batch ~domains (Engine.create ~warm_start:false ()) jobs);
        Eventlog.to_jsonl t)
  in
  let log1 = run 1 and log4 = run 4 in
  Alcotest.(check bool) "log nonempty" true (String.length log1 > 0);
  Alcotest.(check bool) "d1 = d4 bytes" true (log1 = log4);
  Alcotest.(check bool) "d1 reproducible" true (run 1 = log1)

(* ---------- engine spans carry provenance --------------------------------- *)

let test_engine_spans_have_attrs () =
  with_trace_capacity 4096 @@ fun () ->
  let inst = Workloads.protocol_instance ~seed:3 ~n:10 ~k:2 () in
  let jobs = [ Engine.job ~algorithm:Engine.Adaptive ~seed:5 ~trials:2 ~id:0 inst ] in
  ignore (Engine.run_batch (Engine.create ~warm_start:false ()) jobs);
  let spans = Trace.recent () in
  let job_span =
    List.find_opt (fun sp -> sp.Trace.name = "engine.job") spans
  in
  (match job_span with
  | None -> Alcotest.fail "no engine.job span"
  | Some sp ->
      let attr k = List.assoc_opt k sp.Trace.attrs in
      Alcotest.(check (option string)) "job attr" (Some "0") (attr "job");
      Alcotest.(check (option string)) "tier attr" (Some "lp") (attr "tier");
      Alcotest.(check (option string)) "retries attr" (Some "0") (attr "retries");
      (* attempt + lp spans nest under the job span *)
      let children =
        List.filter (fun c -> c.Trace.parent = Some sp.Trace.id) spans
      in
      Alcotest.(check bool) "attempt span nested" true
        (List.exists (fun c -> c.Trace.name = "engine.attempt") children));
  (* one rounding span per attempt, inside it, naming algorithm and n *)
  let by_name name = List.filter (fun sp -> sp.Trace.name = name) spans in
  (match (by_name "core.round", by_name "engine.attempt") with
  | [ round ], [ attempt ] ->
      Alcotest.(check (option int)) "round span under the attempt"
        (Some attempt.Trace.id) round.Trace.parent;
      Alcotest.(check (option string)) "algorithm attr" (Some "adaptive")
        (List.assoc_opt "algorithm" round.Trace.attrs);
      Alcotest.(check (option string)) "n attr" (Some "10")
        (List.assoc_opt "n" round.Trace.attrs)
  | rounds, attempts ->
      Alcotest.failf "%d core.round spans for %d attempts" (List.length rounds)
        (List.length attempts));
  let lp_span =
    List.find_opt (fun sp -> sp.Trace.name = "lp.revised.solve") spans
  in
  match lp_span with
  | None -> Alcotest.fail "no lp.revised.solve span"
  | Some sp ->
      Alcotest.(check bool) "lp span has pivots attr" true
        (List.mem_assoc "pivots" sp.Trace.attrs)

(* A derand job records one core.derand span inside its core.round span. *)
let test_derand_span_inside_round () =
  with_trace_capacity 4096 @@ fun () ->
  let inst = Workloads.protocol_instance ~seed:3 ~n:10 ~k:2 () in
  let jobs = [ Engine.job ~algorithm:Engine.Derand_seq ~seed:5 ~id:0 inst ] in
  ignore (Engine.run_batch (Engine.create ~warm_start:false ()) jobs);
  let spans = Trace.recent () in
  let by_name name = List.filter (fun sp -> sp.Trace.name = name) spans in
  match (by_name "core.derand", by_name "core.round") with
  | [ derand ], [ round ] ->
      Alcotest.(check (option int)) "derand span under the round span"
        (Some round.Trace.id) derand.Trace.parent;
      Alcotest.(check bool) "derand inside the round interval" true
        (derand.Trace.start_s >= round.Trace.start_s
        && derand.Trace.start_s +. derand.Trace.dur_s
           <= round.Trace.start_s +. round.Trace.dur_s)
  | derands, rounds ->
      Alcotest.failf "%d core.derand spans for %d core.round spans" (List.length derands)
        (List.length rounds)

(* ---------- workload set-up spans ----------------------------------------- *)

let test_workload_setup_spans () =
  with_trace_capacity 4096 @@ fun () ->
  let module Workload = Sa_engine.Workload in
  let specs =
    [
      Workload.spec ~model:Workload.Sinr ~n:10 ~k:2 ~seed:3 ~repeat:2 ();
      Workload.spec ~model:Workload.Random_graph ~n:12 ~k:2 ~seed:5 ();
    ]
  in
  let jobs = Workload.expand (Engine.create ()) specs in
  Alcotest.(check int) "jobs" 3 (List.length jobs);
  let spans = Trace.recent () in
  let named name = List.filter (fun sp -> sp.Trace.name = name) spans in
  let bases = named "engine.workload.base"
  and prints = named "engine.workload.fingerprint"
  and rhos = named "graph.rho" in
  Alcotest.(check int) "one base span per batch" 2 (List.length bases);
  Alcotest.(check int) "one fingerprint span per batch" 2 (List.length prints);
  Alcotest.(check int) "one rho estimate per batch" 2 (List.length rhos);
  List.iter
    (fun sp ->
      Alcotest.(check bool) (sp.Trace.name ^ " is a root") true (sp.Trace.parent = None))
    (bases @ prints);
  (* each ρ estimate nests in its batch's base span; each batch's
     fingerprint starts after its base instance is built *)
  List.iter2
    (fun (base, rho) print ->
      Alcotest.(check (option int)) "rho under the base span" (Some base.Trace.id)
        rho.Trace.parent;
      Alcotest.(check bool) "fingerprint after the base" true
        (print.Trace.start_s >= base.Trace.start_s +. base.Trace.dur_s -. 1e-6))
    (List.combine bases rhos) prints;
  Alcotest.(check (option string)) "model attr" (Some "sinr")
    (List.assoc_opt "model" (List.hd bases).Trace.attrs)

(* ---------- http endpoint ------------------------------------------------- *)

let test_http_scrape_metrics () =
  let server =
    Http.start ~port:0 (fun path ->
        match path with
        | "/healthz" ->
            { Http.status = 200; content_type = "text/plain"; body = "ok\n" }
        | "/metrics" ->
            {
              Http.status = 200;
              content_type = "text/plain";
              body = Export.to_prometheus (Metrics.snapshot ());
            }
        | _ ->
            { Http.status = 404; content_type = "text/plain"; body = "no\n" })
  in
  Fun.protect
    ~finally:(fun () -> Http.stop server)
    (fun () ->
      let port = Http.port server in
      Alcotest.(check bool) "ephemeral port bound" true (port > 0);
      let status, body = Http.get ~port "/healthz" in
      Alcotest.(check int) "healthz 200" 200 status;
      Alcotest.(check string) "healthz body" "ok\n" body;
      let status, body = Http.get ~port "/metrics" in
      Alcotest.(check int) "metrics 200" 200 status;
      (* every well-known metric must appear in the exposition *)
      let prom name =
        "specauction_" ^ String.map (fun c -> if c = '.' then '_' else c) name
      in
      List.iter
        (fun name ->
          if not (contains body (prom name)) then
            Alcotest.failf "well-known metric %s missing from /metrics" name)
        (Metrics.well_known_counters @ Metrics.well_known_gauges
        @ Metrics.well_known_histograms);
      Alcotest.(check bool) "HELP lines present" true (contains body "# HELP ");
      let status, _ = Http.get ~port "/nothere" in
      Alcotest.(check int) "unknown path 404" 404 status)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    Alcotest.test_case "span nesting on one domain" `Quick
      test_span_nesting_single_domain;
    Alcotest.test_case "span recorded on exception" `Quick
      test_span_exception_still_recorded;
    Alcotest.test_case "span hierarchy well-formed across domains" `Quick
      test_span_wellformed_across_domains;
    Alcotest.test_case "ring capacity validation + wraparound order" `Quick
      test_capacity_validation_and_wraparound;
    q prop_chrome_schema_valid;
    q prop_snapshot_spans_round_trip;
    q prop_eventlog_jsonl_schema;
    Alcotest.test_case "eventlog needs sink and job scope" `Quick
      test_eventlog_needs_scope_and_sink;
    Alcotest.test_case "event log byte-identical at domains 1 vs 4" `Quick
      test_eventlog_domains_byte_identical;
    Alcotest.test_case "engine spans carry job/tier/retry attrs" `Quick
      test_engine_spans_have_attrs;
    Alcotest.test_case "workload set-up spans nest the rho estimate" `Quick
      test_workload_setup_spans;
    Alcotest.test_case "http scrape serves every well-known metric" `Quick
      test_http_scrape_metrics;
    Alcotest.test_case "derand span nests inside the round span" `Quick
      test_derand_span_inside_round;
  ]
