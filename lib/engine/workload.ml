module Prng = Sa_util.Prng
module Instance = Sa_core.Instance
module Valuation = Sa_val.Valuation
module Generators = Sa_graph.Generators
module Workloads = Sa_exp.Workloads

(* ------------------------------- revaluing ------------------------------- *)

let jitter g v = v *. Prng.uniform_in g 0.6 1.4

let revalue_valuation g = function
  | Valuation.Xor bids -> Valuation.Xor (List.map (fun (b, v) -> (b, jitter g v)) bids)
  | Valuation.Additive vs -> Valuation.Additive (Array.map (jitter g) vs)
  | Valuation.Unit_demand vs -> Valuation.Unit_demand (Array.map (jitter g) vs)
  | Valuation.Symmetric f ->
      (* one factor for the whole curve keeps it a valid concave profile *)
      let s = Prng.uniform_in g 0.6 1.4 in
      Valuation.Symmetric (Array.map (fun v -> v *. s) f)
  | Valuation.Budget_additive { values; budget } ->
      let s = Prng.uniform_in g 0.6 1.4 in
      Valuation.Budget_additive
        { values = Array.map (fun v -> v *. s) values; budget = budget *. s }
  | Valuation.Or_bids bids ->
      Valuation.Or_bids (List.map (fun (b, v) -> (b, jitter g v)) bids)

let revalue ~seed inst =
  let g = Prng.create ~seed in
  let bidders = Array.map (revalue_valuation g) inst.Instance.bidders in
  let fresh =
    Instance.make ~conflict:inst.Instance.conflict ~k:inst.Instance.k ~bidders
      ~ordering:inst.Instance.ordering ~rho:inst.Instance.rho
  in
  Instance.with_available fresh inst.Instance.available

(* --------------------------------- specs --------------------------------- *)

type model = Protocol | Disk | Sinr | Clique | Asymmetric | Random_graph

let model_name = function
  | Protocol -> "protocol"
  | Disk -> "disk"
  | Sinr -> "sinr"
  | Clique -> "clique"
  | Asymmetric -> "asymmetric"
  | Random_graph -> "random"

let model_of_name = function
  | "protocol" -> Some Protocol
  | "disk" -> Some Disk
  | "sinr" -> Some Sinr
  | "clique" -> Some Clique
  | "asymmetric" -> Some Asymmetric
  | "random" -> Some Random_graph
  | _ -> None

type spec = {
  model : model;
  n : int;
  k : int;
  seed : int;
  algorithm : Engine.algorithm;
  trials : int;
  repeat : int;
  revalue_bids : bool;
}

let spec ?(model = Protocol) ?(n = 20) ?(k = 3) ?(seed = 1) ?(algorithm = Engine.Adaptive)
    ?(trials = 4) ?(repeat = 1) ?(revalue_bids = true) () =
  if n < 1 || k < 1 || trials < 1 || repeat < 1 then
    invalid_arg "Workload.spec: n, k, trials, repeat must be >= 1";
  if k > Sa_val.Bundle.max_channels then
    invalid_arg "Workload.spec: k exceeds Bundle.max_channels";
  { model; n; k; seed; algorithm; trials; repeat; revalue_bids }

(* ------------------------------ file format ------------------------------ *)

let version = 1

let spec_to_line s =
  Printf.sprintf "batch model=%s n=%d k=%d seed=%d algorithm=%s trials=%d repeat=%d revalue=%b"
    (model_name s.model) s.n s.k s.seed
    (Engine.algorithm_name s.algorithm)
    s.trials s.repeat s.revalue_bids

let to_string specs =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "specauction-workload %d\n" version);
  List.iter
    (fun s ->
      Buffer.add_string buf (spec_to_line s);
      Buffer.add_char buf '\n')
    specs;
  Buffer.add_string buf "end\n";
  Buffer.contents buf

let fail line msg =
  let detail = Printf.sprintf "line %d: %s" line msg in
  Sa_util.Fail.raise_ (Sa_util.Fail.Malformed_job { detail })

let parse_spec lineno words =
  let get key of_string fallback =
    let prefix = key ^ "=" in
    match
      List.find_opt (fun w -> String.length w > String.length prefix
                              && String.sub w 0 (String.length prefix) = prefix) words
    with
    | None -> (
        match fallback with
        | Some v -> v
        | None -> fail lineno (Printf.sprintf "missing %s=..." key))
    | Some w -> (
        let raw = String.sub w (String.length prefix)
                    (String.length w - String.length prefix) in
        match of_string raw with
        | Some v -> v
        | None -> fail lineno (Printf.sprintf "bad value for %s: %s" key raw))
  in
  let int_k = int_of_string_opt and bool_k = bool_of_string_opt in
  (* the rule [spec] enforces, reported against the line *)
  let positive key fallback =
    let v = get key int_k fallback in
    if v < 1 then fail lineno (Printf.sprintf "%s must be >= 1, got %d" key v);
    v
  in
  let model = get "model" model_of_name None in
  let n = positive "n" None in
  let k = positive "k" None in
  if k > Sa_val.Bundle.max_channels then
    fail lineno
      (Printf.sprintf "k must be <= %d, got %d" Sa_val.Bundle.max_channels k);
  let seed = get "seed" int_k (Some 1) in
  let algorithm = get "algorithm" Engine.algorithm_of_name (Some Engine.Adaptive) in
  let trials = positive "trials" (Some 4) in
  let repeat = positive "repeat" (Some 1) in
  let revalue_bids = get "revalue" bool_k (Some true) in
  { model; n; k; seed; algorithm; trials; repeat; revalue_bids }

let of_string text =
  let lines = String.split_on_char '\n' text in
  let specs = ref [] and seen_header = ref false and seen_end = ref false in
  List.iteri
    (fun i raw ->
      let line = String.trim raw in
      let lineno = i + 1 in
      if line = "" || line.[0] = '#' || !seen_end then ()
      else if not !seen_header then begin
        match String.split_on_char ' ' line with
        | [ "specauction-workload"; v ] when int_of_string_opt v = Some version ->
            seen_header := true
        | _ -> fail lineno "bad header (expected 'specauction-workload 1')"
      end
      else if line = "end" then seen_end := true
      else
        match String.split_on_char ' ' line |> List.filter (fun w -> w <> "") with
        | "batch" :: rest -> specs := parse_spec lineno rest :: !specs
        | _ -> fail lineno "expected 'batch key=value ...' or 'end'")
    lines;
  let last = List.length lines in
  if not !seen_header then fail last "empty input (expected 'specauction-workload 1')";
  if not !seen_end then fail last "missing 'end'";
  List.rev !specs

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      of_string (really_input_string ic len))

let save path specs =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string specs))

(* ------------------------------- expansion ------------------------------- *)

let base_instance engine s =
  match s.model with
  | Protocol ->
      (* geometric models key the engine's topology cache on the O(n)
         placement fingerprint instead of digesting the conflict graph *)
      let g, _, conflict, key = Workloads.protocol_conflict ~seed:s.seed ~n:s.n () in
      let bidders = Workloads.bidders g ~n:s.n ~k:s.k ~profile:Workloads.Xor_small in
      Engine.prepare engine ~key ~conflict ~k:s.k bidders
  | Disk ->
      let g, _, conflict, key = Workloads.disk_conflict ~seed:s.seed ~n:s.n () in
      let bidders = Workloads.bidders g ~n:s.n ~k:s.k ~profile:Workloads.Xor_small in
      Engine.prepare engine ~key ~conflict ~k:s.k bidders
  | Sinr ->
      fst
        (Workloads.sinr_fixed_instance ~seed:s.seed ~n:s.n ~k:s.k
           ~scheme:Sa_wireless.Sinr.Uniform ())
  | Clique -> Workloads.clique_instance ~seed:s.seed ~n:s.n ~k:s.k ()
  | Asymmetric -> Workloads.asymmetric_instance ~seed:s.seed ~n:s.n ~k:s.k ~d:4
  | Random_graph ->
      (* ordering and ρ come from the engine's topology cache: repeated
         batches over the same (seed, n) share the expensive ρ estimate *)
      let g = Prng.create ~seed:s.seed in
      let graph = Generators.random_bounded_degree g ~n:s.n ~d:4 in
      let bidders = Workloads.bidders g ~n:s.n ~k:s.k ~profile:Workloads.Xor_small in
      Engine.prepare engine ~conflict:(Instance.Unweighted graph) ~k:s.k bidders

let h_base = Sa_telemetry.Metrics.histogram "engine.workload.base.seconds"
let h_fingerprint = Sa_telemetry.Metrics.histogram "engine.workload.fingerprint.seconds"

let expand engine specs =
  let next_id = ref 0 in
  List.concat_map
    (fun s ->
      let base =
        Sa_telemetry.Trace.with_span ~hist:h_base "engine.workload.base"
          ~attrs:[ ("model", model_name s.model); ("n", string_of_int s.n) ]
          (fun () -> base_instance engine s)
      in
      (* [revalue] preserves the LP shape, so one fingerprint serves the
         whole batch *)
      let shape_key =
        Sa_telemetry.Trace.with_span ~hist:h_fingerprint "engine.workload.fingerprint"
          (fun () -> Sa_core.Serialize.shape_fingerprint base)
      in
      List.init s.repeat (fun i ->
          let inst =
            if i = 0 || not s.revalue_bids then base
            else revalue ~seed:(s.seed + (7919 * i)) base
          in
          let id = !next_id in
          incr next_id;
          Engine.job ~algorithm:s.algorithm ~seed:(s.seed + i) ~trials:s.trials
            ~shape_key ~id inst))
    specs

let demo =
  [
    spec ~model:Protocol ~n:18 ~k:3 ~seed:11 ~algorithm:Engine.Adaptive ~repeat:6 ();
    spec ~model:Random_graph ~n:16 ~k:3 ~seed:5 ~algorithm:Engine.Lp_round ~repeat:4 ();
    spec ~model:Random_graph ~n:16 ~k:3 ~seed:5 ~algorithm:Engine.Greedy_lp ~repeat:2 ();
    spec ~model:Sinr ~n:12 ~k:2 ~seed:3 ~algorithm:Engine.Adaptive ~repeat:3 ();
  ]
