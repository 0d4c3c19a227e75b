(* Command-line spectrum-auction runner.

   Two subcommands:
   - [run] (default): build one synthetic instance for a chosen
     interference model, solve it with a chosen algorithm, print the
     allocation — the single-shot front-end over the library.
   - [serve]: replay a workload file of auction job batches through the
     batch engine (domain sharding + warm-start caches, see lib/engine).

   Examples:
     dune exec bin/auction.exe -- run --model protocol -n 30 -k 4
     dune exec bin/auction.exe -- run --model sinr -n 20 -k 3 --algorithm adaptive
     dune exec bin/auction.exe -- run --model protocol -n 10 -k 2 --mechanism
     dune exec bin/auction.exe -- serve --demo --domains 4
     dune exec bin/auction.exe -- serve --workload jobs.wl --json summary.json *)

open Cmdliner
module Prng = Sa_util.Prng
module Workloads = Sa_exp.Workloads
module Instance = Sa_core.Instance
module Allocation = Sa_core.Allocation
module Lp = Sa_core.Lp_relaxation
module Rounding = Sa_core.Rounding
module Greedy = Sa_core.Greedy
module Exact = Sa_core.Exact
module Derand = Sa_core.Derand
module Lavi_swamy = Sa_mech.Lavi_swamy
module Decomposition = Sa_mech.Decomposition

type model = Protocol | Disk | Sinr | Clique | Asymmetric
type algorithm = Lp_round | Adaptive | Greedy_alg | Exact_alg | Derand_alg

let build_instance model ~seed ~n ~k =
  match model with
  | Protocol -> Workloads.protocol_instance ~seed ~n ~k ()
  | Disk -> Workloads.disk_instance ~seed ~n ~k ()
  | Sinr ->
      fst (Workloads.sinr_fixed_instance ~seed ~n ~k ~scheme:Sa_wireless.Sinr.Uniform ())
  | Clique -> Workloads.clique_instance ~seed ~n ~k ()
  | Asymmetric -> Workloads.asymmetric_instance ~seed ~n ~k ~d:4

let model_name = function
  | Protocol -> "protocol"
  | Disk -> "disk"
  | Sinr -> "sinr (fixed uniform powers)"
  | Clique -> "clique (plain combinatorial auction)"
  | Asymmetric -> "asymmetric channels (Thm 14 gadget)"

(* Exit status for an input file (--load, --workload) that cannot be read
   or parsed; listed in the EXIT STATUS section of [run] and [serve]. *)
let exit_bad_input = 3

let bad_input_exit =
  Cmd.Exit.info exit_bad_input
    ~doc:"on an input file that cannot be read or parsed; one line on \
          standard error names the file and, for a parse error, the line."

(* [load path], with a malformed or unreadable file reported as one
   "auction: FILE: line N: ..." line and [exit_bad_input]. *)
let load_input load path =
  try load path with
  | Sa_util.Fail.Error (Sa_util.Fail.Malformed_job { detail }) ->
      Printf.eprintf "auction: %s: %s\n%!" path detail;
      exit exit_bad_input
  | Sys_error msg ->
      Printf.eprintf "auction: %s\n%!" msg;
      exit exit_bad_input

let run_auction () model algorithm n k seed trials mechanism save load =
  let inst =
    match load with
    | Some path -> load_input Sa_core.Serialize.load_instance path
    | None -> build_instance model ~seed ~n ~k
  in
  (match save with
  | Some path ->
      Sa_core.Serialize.save_instance path inst;
      Printf.printf "instance saved to %s\n" path
  | None -> ());
  let k = inst.Instance.k in
  Printf.printf "model: %s   n=%d  k=%d  rho=%.1f  seed=%d\n"
    (match load with Some path -> "loaded from " ^ path | None -> model_name model)
    (Instance.n inst) k inst.Instance.rho seed;
  let frac = Lp.solve_explicit inst in
  Printf.printf "LP optimum (welfare upper bound): %.3f\n" frac.Lp.objective;
  let g = Prng.create ~seed:(seed + 1) in
  let alloc =
    match algorithm with
    | Lp_round -> Rounding.solve ~trials g inst frac
    | Adaptive -> Rounding.solve_adaptive ~trials:(max 1 (trials / 2)) g inst frac
    | Greedy_alg -> Greedy.by_value inst
    | Exact_alg ->
        let r = Exact.solve inst in
        if not r.Exact.exact then
          prerr_endline "warning: exact search hit its node budget; best found returned";
        r.Exact.allocation
    | Derand_alg -> (
        match inst.Instance.conflict with
        | Instance.Unweighted _ -> Derand.algorithm1_derand inst frac
        | Instance.Edge_weighted _ -> Derand.algorithm23_derand inst frac
        | Instance.Per_channel _ | Instance.Per_channel_weighted _ ->
            failwith "derand supports unweighted/edge-weighted instances only")
  in
  Printf.printf "welfare: %.3f   (feasible: %b, guarantee factor: %.1f)\n"
    (Allocation.value inst alloc)
    (Allocation.is_feasible inst alloc)
    (Rounding.guarantee inst);
  Printf.printf "winners (%d):\n" (List.length (Allocation.allocated_bidders alloc));
  Format.printf "%a%!" (Allocation.pp inst) alloc;
  if mechanism then begin
    Printf.printf "\n-- Lavi-Swamy truthful mechanism --\n";
    let o = Lavi_swamy.run ~alpha:(2.0 *. Rounding.guarantee inst) g inst in
    Printf.printf "lottery size: %d   effective alpha: %.1f\n"
      (Array.length o.Lavi_swamy.lottery.Decomposition.allocations)
      o.Lavi_swamy.alpha;
    let sampled, payments = Lavi_swamy.sample g inst o in
    Printf.printf "sampled outcome (feasible: %b):\n"
      (Allocation.is_feasible inst sampled);
    Array.iteri
      (fun v b ->
        if not (Sa_val.Bundle.is_empty b) then
          Printf.printf "  bidder %d: %s  pays %.3f\n" v
            (Format.asprintf "%a" Sa_val.Bundle.pp b)
            payments.(v))
      sampled
  end

let model_arg =
  let c = Arg.enum
      [ ("protocol", Protocol); ("disk", Disk); ("sinr", Sinr); ("clique", Clique);
        ("asymmetric", Asymmetric) ]
  in
  Arg.(value & opt c Protocol & info [ "model" ] ~docv:"MODEL"
         ~doc:"Interference model: protocol|disk|sinr|clique|asymmetric.")

let algorithm_arg =
  let c = Arg.enum
      [ ("lp-round", Lp_round); ("adaptive", Adaptive); ("greedy", Greedy_alg);
        ("exact", Exact_alg); ("derand", Derand_alg) ]
  in
  Arg.(value & opt c Adaptive & info [ "algorithm" ] ~docv:"ALG"
         ~doc:"Allocation algorithm: lp-round|adaptive|greedy|exact|derand.")

let n_arg = Arg.(value & opt int 25 & info [ "n"; "bidders" ] ~doc:"Number of bidders.")
let k_arg = Arg.(value & opt int 4 & info [ "k"; "channels" ] ~doc:"Number of channels.")
let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")
let trials_arg = Arg.(value & opt int 16 & info [ "trials" ] ~doc:"Rounding trials.")

let mechanism_arg =
  Arg.(value & flag & info [ "mechanism" ]
         ~doc:"Also run the Lavi-Swamy truthful mechanism and sample an outcome.")

let save_arg =
  Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE"
         ~doc:"Save the generated instance to $(docv) before solving.")

let load_arg =
  Arg.(value & opt (some string) None & info [ "load" ] ~docv:"FILE"
         ~doc:"Load the instance from $(docv) instead of generating one \
               (--model/-n/-k/--seed are then ignored).")

let run_term =
  Term.(const run_auction $ Log_cli.term $ model_arg $ algorithm_arg $ n_arg
        $ k_arg $ seed_arg $ trials_arg $ mechanism_arg $ save_arg $ load_arg)

let run_cmd =
  let doc = "Run one synthetic secondary spectrum auction" in
  Cmd.v (Cmd.info "run" ~doc ~exits:(bad_input_exit :: Cmd.Exit.defaults)) run_term

(* ------------------------------- serve ----------------------------------- *)

module Engine = Sa_engine.Engine
module Workload = Sa_engine.Workload
module Metrics = Sa_telemetry.Metrics
module Trace = Sa_telemetry.Trace
module Export = Sa_telemetry.Export
module Eventlog = Sa_telemetry.Eventlog
module Http = Sa_telemetry.Http

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* One-line digest of the hot-path counters, printed after every batch. *)
let print_telemetry_summary (snap : Metrics.view) =
  let c name = Option.value ~default:0 (Metrics.find_counter snap name) in
  Printf.printf
    "telemetry: pivots %d  colgen %d calls / %d cols  rounding %d trials  \
     rho-est %d  topo %d/%d hit  basis %d/%d hit\n"
    (c "lp.revised.pivots") (c "core.colgen.oracle_calls")
    (c "core.colgen.columns") (c "core.rounding.trials") (c "graph.rho.estimates")
    (c "engine.topology.hits")
    (c "engine.topology.hits" + c "engine.topology.misses")
    (c "engine.basis.hits") (c "engine.basis.lookups")

let run_serve () workload demo domains pool_chunk no_warm no_column_pool
    json_out metrics_out prom_out fault_rate fault_seed
    deadline_ms pivot_budget max_retries no_fallback results_out listen
    trace_out events_out =
  let specs =
    match (workload, demo) with
    | Some path, _ -> load_input Workload.load path
    | None, true -> Workload.demo
    | None, false ->
        prerr_endline "serve: pass --workload FILE or --demo";
        exit 2
  in
  let faults =
    match fault_rate with
    | None -> None
    | Some rate when rate < 0.0 || rate > 1.0 ->
        prerr_endline "serve: --fault-rate must be in [0,1]";
        exit 2
    | Some rate -> Some (Sa_engine.Faultgen.create ~seed:fault_seed ~rate ())
  in
  let policy =
    Engine.policy
      ?deadline_s:(Option.map (fun ms -> ms /. 1e3) deadline_ms)
      ?pivot_budget ~max_retries ~fallback:(not no_fallback) ?faults ()
  in
  (match pool_chunk with
  | Some c when c < 1 ->
      prerr_endline "serve: --pool-chunk must be >= 1";
      exit 2
  | _ -> ());
  let engine =
    Engine.create ~warm_start:(not no_warm) ~column_pool:(not no_column_pool) ()
  in
  (* The scrape handler runs on the server domain: metrics are domain-safe
     already, and the per-job table is published through an Atomic ref once
     the batch lands (empty array until then). *)
  let results_ref = Atomic.make [||] in
  let server =
    match listen with
    | None -> None
    | Some port ->
        let handler path =
          match path with
          | "/healthz" ->
              { Http.status = 200; content_type = "text/plain"; body = "ok\n" }
          | "/metrics" ->
              {
                Http.status = 200;
                content_type = "text/plain; version=0.0.4";
                body = Export.to_prometheus (Metrics.snapshot ());
              }
          | "/jobs" ->
              {
                Http.status = 200;
                content_type = "application/json";
                body = Engine.results_to_json (Atomic.get results_ref) ^ "\n";
              }
          | _ ->
              {
                Http.status = 404;
                content_type = "text/plain";
                body = "not found\n";
              }
        in
        let srv = Http.start ~port handler in
        Printf.printf "listening on 127.0.0.1:%d\n%!" (Http.port srv);
        Some srv
  in
  let events =
    match events_out with
    | None -> None
    | Some _ ->
        let t = Eventlog.create () in
        Eventlog.install (Some t);
        Some t
  in
  (* A full-batch Perfetto export needs more history than the default
     post-mortem ring keeps. *)
  if trace_out <> None then Trace.set_capacity (max (Trace.capacity ()) 65536);
  let jobs = Workload.expand engine specs in
  Printf.printf
    "serve: %d batches -> %d jobs, %d domain%s, warm-start %s%s\n%!"
    (List.length specs) (List.length jobs) domains
    (if domains = 1 then "" else "s")
    (if no_warm then "off" else "on")
    (match fault_rate with
    | None -> ""
    | Some r -> Printf.sprintf ", fault-rate %.2f (seed %d)" r fault_seed);
  let results, summary =
    Engine.run_batch ~domains ?chunk:pool_chunk ~policy engine jobs
  in
  Atomic.set results_ref results;
  let per_job =
    match Logs.level () with
    | Some (Logs.Info | Logs.Debug) -> true
    | Some (Logs.App | Logs.Error | Logs.Warning) | None -> false
  in
  if per_job then begin
    Printf.printf "%5s %7s %9s %9s %7s %6s %7s %9s %9s\n" "job" "tier" "welfare"
      "lp-ub" "pivots" "warm" "retries" "lp-ms" "round-ms";
    Array.iter
      (fun r ->
        Printf.printf "%5d %7s %9.3f %9.3f %7d %6s %7d %9.2f %9.2f\n"
          r.Engine.job_id
          (match r.Engine.tier with
          | Some tr -> Engine.tier_name tr
          | None -> "FAILED")
          r.Engine.welfare r.Engine.lp_objective r.Engine.lp_iterations
          (if r.Engine.warm_start then "yes" else "no")
          r.Engine.retries
          (r.Engine.timings.Engine.lp_s *. 1e3)
          (r.Engine.timings.Engine.round_s *. 1e3))
      results
  end;
  Format.printf "%a@." Engine.pp_summary summary;
  (match results_out with
  | None -> ()
  | Some path ->
      write_file path (Engine.results_to_json results ^ "\n");
      Printf.printf "per-job results written to %s\n" path);
  let snap = Metrics.snapshot () in
  print_telemetry_summary snap;
  (match metrics_out with
  | None -> ()
  | Some path ->
      write_file path (Export.snapshot_to_json ~spans:(Trace.recent ()) snap);
      Printf.printf "metrics snapshot written to %s\n" path);
  (match prom_out with
  | None -> ()
  | Some path ->
      write_file path (Export.to_prometheus snap);
      Printf.printf "prometheus exposition written to %s\n" path);
  (match json_out with
  | None -> ()
  | Some path ->
      let telemetry = Export.snapshot_to_json snap in
      write_file path
        (Engine.summary_to_json ~extra:[ ("telemetry", telemetry) ] summary ^ "\n");
      Printf.printf "summary written to %s\n" path);
  (match (events_out, events) with
  | Some path, Some t ->
      write_file path (Eventlog.to_jsonl t);
      Eventlog.install None;
      Printf.printf "event log written to %s\n" path
  | _ -> ());
  (match trace_out with
  | None -> ()
  | Some path ->
      write_file path (Export.spans_to_chrome (Trace.recent ()));
      Printf.printf "chrome trace written to %s\n" path);
  match server with
  | None -> ()
  | Some srv ->
      Printf.printf "serving /metrics /healthz /jobs (Ctrl-C to stop)\n%!";
      Http.wait srv

let workload_arg =
  Arg.(value & opt (some string) None & info [ "workload" ] ~docv:"FILE"
         ~doc:"Workload file to replay (see lib/engine/workload.mli for the format).")

let demo_arg =
  Arg.(value & flag & info [ "demo" ]
         ~doc:"Use the built-in demo workload instead of --workload.")

let domains_arg =
  Arg.(value & opt int 1 & info [ "domains" ]
         ~doc:"Number of OCaml domains to shard jobs across (scheduled on \
               the persistent domain pool).")

let pool_chunk_arg =
  Arg.(value & opt (some int) None & info [ "pool-chunk" ] ~docv:"N"
         ~doc:"Fix the domain pool's self-scheduling chunk size (default: \
               adaptive, remaining/(2*domains) capped at 64).  Results are \
               identical for any value; only scheduling changes.")

let no_column_pool_arg =
  Arg.(value & flag & info [ "no-column-pool" ]
         ~doc:"Disable the cross-job column pool used by algorithm=oracle \
               jobs (colgen then always starts cold; certified objectives \
               are unchanged).")

let no_warm_arg =
  Arg.(value & flag & info [ "no-warm" ]
         ~doc:"Disable the LP warm-start basis cache (results are then \
               byte-identical across any --domains value).")

let json_arg =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
         ~doc:"Write the batch summary as JSON to $(docv) (includes the \
               telemetry snapshot under the \"telemetry\" key).")

let metrics_out_arg =
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE"
         ~doc:"Write the full telemetry snapshot (counters, gauges, \
               histograms, recent trace spans) as JSON to $(docv).")

let prom_out_arg =
  Arg.(value & opt (some string) None & info [ "prometheus-out" ] ~docv:"FILE"
         ~doc:"Write the telemetry snapshot in Prometheus text exposition \
               format to $(docv).")

let fault_rate_arg =
  Arg.(value & opt (some float) None & info [ "fault-rate" ] ~docv:"P"
         ~doc:"Inject deterministic faults with per-site probability $(docv) \
               in [0,1] (seeded PRNG per (job, attempt), reproducible at any \
               --domains).  Failed stages retry and then degrade through the \
               greedy/online fallback chain.")

let fault_seed_arg =
  Arg.(value & opt int 0 & info [ "fault-seed" ]
         ~doc:"Seed for the fault-injection PRNG (with --fault-rate).")

let deadline_ms_arg =
  Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS"
         ~doc:"Per-job wall-clock budget in milliseconds (monotonic clock, \
               enforced inside the simplex pivot loops).  Expired jobs fall \
               back to the greedy/online tiers.")

let pivot_budget_arg =
  Arg.(value & opt (some int) None & info [ "pivot-budget" ] ~docv:"N"
         ~doc:"Max simplex pivots per LP attempt.")

let max_retries_arg =
  Arg.(value & opt int 1 & info [ "max-retries" ]
         ~doc:"LP attempts after the first before falling back (retries \
               solve cold with a fresh rounding seed).")

let no_fallback_arg =
  Arg.(value & flag & info [ "no-fallback" ]
         ~doc:"Disable the greedy/online fallback chain: jobs whose LP tier \
               fails are reported as failed with an empty allocation.")

let results_out_arg =
  Arg.(value & opt (some string) None & info [ "results-out" ] ~docv:"FILE"
         ~doc:"Write per-job results (status, tier, welfare, guarantee, \
               retries, failure labels) as a JSON array to $(docv).  \
               Timing-free, so same-seed runs produce identical bytes.")

let listen_arg =
  Arg.(value & opt (some int) None & info [ "listen" ] ~docv:"PORT"
         ~doc:"Expose /metrics (Prometheus), /healthz and /jobs over HTTP on \
               127.0.0.1:$(docv) (0 picks an ephemeral port, printed at \
               startup) and keep the process alive after the batch.")

let trace_out_arg =
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
         ~doc:"Write the span timeline as Chrome Trace Event JSON to $(docv) \
               (open in ui.perfetto.dev or chrome://tracing; one track per \
               domain, spans carry job/tier/retry attributes).")

let events_out_arg =
  Arg.(value & opt (some string) None & info [ "events-out" ] ~docv:"FILE"
         ~doc:"Write the decision event log as JSON Lines to $(docv).  \
               Timing-free and merged in fixed (job, index) order, so \
               same-seed logs are byte-identical at any --domains (use \
               --no-warm: the shared warm-start cache is order-dependent).")

let serve_cmd =
  let doc = "Replay a workload file through the batch auction engine" in
  Cmd.v (Cmd.info "serve" ~doc ~exits:(bad_input_exit :: Cmd.Exit.defaults))
    Term.(const run_serve $ Log_cli.term $ workload_arg $ demo_arg $ domains_arg
          $ pool_chunk_arg $ no_warm_arg $ no_column_pool_arg $ json_arg
          $ metrics_out_arg $ prom_out_arg
          $ fault_rate_arg $ fault_seed_arg $ deadline_ms_arg $ pivot_budget_arg
          $ max_retries_arg $ no_fallback_arg $ results_out_arg $ listen_arg
          $ trace_out_arg $ events_out_arg)

(* ------------------------------- metrics --------------------------------- *)

(* Validate and summarise a snapshot file written by [serve --metrics-out]
   (used by scripts/check.sh as a parse check). *)
let run_metrics path =
  let ic = open_in_bin path in
  let contents =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Export.snapshot_of_json contents with
  | exception Export.Parse_error msg ->
      Printf.eprintf "metrics: %s: invalid snapshot: %s\n" path msg;
      exit 1
  | view, spans ->
      let nonzero = List.filter (fun (_, v) -> v > 0) view.Metrics.counters in
      Printf.printf "snapshot ok: %d counters (%d nonzero), %d gauges, %d histograms, %d spans\n"
        (List.length view.Metrics.counters)
        (List.length nonzero)
        (List.length view.Metrics.gauges)
        (List.length view.Metrics.histograms)
        (List.length spans);
      List.iter (fun (name, v) -> Printf.printf "  %s = %d\n" name v) nonzero

let metrics_path_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"Snapshot file written by serve --metrics-out.")

let metrics_cmd =
  let doc = "Validate and summarise a telemetry snapshot file" in
  Cmd.v (Cmd.info "metrics" ~doc) Term.(const run_metrics $ metrics_path_arg)

(* -------------------------------- trace ---------------------------------- *)

(* Schema-check a Chrome trace written by [serve --trace-out] (used by
   scripts/check.sh so the smoke needs no external JSON tooling). *)
let run_trace path =
  match Export.validate_chrome (read_file path) with
  | exception Export.Parse_error msg ->
      Printf.eprintf "trace: %s: invalid chrome trace: %s\n" path msg;
      exit 1
  | n -> Printf.printf "chrome trace ok: %d span events\n" n

let trace_path_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"Chrome Trace Event file written by serve --trace-out.")

let trace_cmd =
  let doc = "Validate a Chrome Trace Event file" in
  Cmd.v (Cmd.info "trace" ~doc) Term.(const run_trace $ trace_path_arg)

(* --------------------------------- get ----------------------------------- *)

(* Raw-socket HTTP GET so smoke scripts can scrape [serve --listen] without
   a curl dependency.  Prints the body; exits 1 on any non-200. *)
let run_get host port path =
  match Http.get ~host ~port path with
  | exception e ->
      Printf.eprintf "get: %s:%d%s: %s\n" host port path (Printexc.to_string e);
      exit 1
  | 200, body -> print_string body
  | status, _ ->
      Printf.eprintf "get: %s:%d%s: HTTP %d\n" host port path status;
      exit 1

let get_host_arg =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST"
         ~doc:"Host to connect to.")

let get_port_arg =
  Arg.(required & opt (some int) None & info [ "port" ] ~docv:"PORT"
         ~doc:"Port of a running serve --listen.")

let get_path_arg =
  Arg.(value & pos 0 string "/metrics" & info [] ~docv:"PATH"
         ~doc:"Request path (default /metrics).")

let get_cmd =
  let doc = "HTTP GET against a running serve --listen (no curl needed)" in
  Cmd.v (Cmd.info "get" ~doc)
    Term.(const run_get $ get_host_arg $ get_port_arg $ get_path_arg)

let cmd =
  let doc = "Secondary spectrum auctions: single runs and batch serving" in
  Cmd.group ~default:run_term (Cmd.info "auction" ~doc)
    [ run_cmd; serve_cmd; metrics_cmd; trace_cmd; get_cmd ]

let () = exit (Cmd.eval cmd)
