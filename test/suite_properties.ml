(* QCheck property suite: allocation feasibility and bundle containment for
   every rounding path (including the batch engine), engine batch
   determinism under sharding, serialization round-trips, and the cache
   keys' sensitivity to single edits. *)

module Prng = Sa_util.Prng
module Floats = Sa_util.Floats
module Bundle = Sa_val.Bundle
module Valuation = Sa_val.Valuation
module Instance = Sa_core.Instance
module Allocation = Sa_core.Allocation
module Lp = Sa_core.Lp_relaxation
module Rounding = Sa_core.Rounding
module Greedy = Sa_core.Greedy
module Serialize = Sa_core.Serialize
module Graph = Sa_graph.Graph
module Weighted = Sa_graph.Weighted
module Workloads = Sa_exp.Workloads
module Engine = Sa_engine.Engine
module Workload = Sa_engine.Workload

(* ---------- fixtures ---------------------------------------------------- *)

(* Alternate between the two geometric conflict models the paper benchmarks:
   protocol (pairwise interference radii) and disk (unit disks). *)
let random_geometric_instance seed =
  let n = 8 + (seed mod 9) and k = 2 + (seed mod 3) in
  if seed mod 2 = 0 then Workloads.protocol_instance ~seed ~n ~k ()
  else Workloads.disk_instance ~seed ~n ~k ()

(* ---------- allocation sanity ------------------------------------------- *)

(* A returned allocation must (a) give each channel an independent holder
   set and (b) never hand a bidder channels outside a bundle it asked for:
   every non-empty allocated bundle is one of the bidder's support bundles
   (clipped to its availability). *)
let requested_bundles inst v =
  Valuation.support inst.Instance.bidders.(v) ~k:inst.Instance.k
  |> List.map (fun (b, _) -> Instance.restrict_bundle inst ~bidder:v b)

let bundle_requested inst v b =
  Bundle.is_empty b
  || List.exists (fun r -> Bundle.to_int r = Bundle.to_int b) (requested_bundles inst v)

let check_allocation ~what inst alloc =
  if not (Allocation.is_feasible inst alloc) then
    QCheck.Test.fail_reportf "%s: infeasible allocation (violations on %d channels)"
      what
      (List.length (Allocation.violations inst alloc));
  Array.iteri
    (fun v b ->
      if not (bundle_requested inst v b) then
        QCheck.Test.fail_reportf "%s: bidder %d allocated unrequested bundle %d" what v
          (Bundle.to_int b))
    alloc;
  true

let prop_allocations_feasible_and_requested =
  QCheck.Test.make
    ~name:"rounding/greedy/engine allocations: independent per channel, only requested bundles"
    ~count:25
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let inst = random_geometric_instance seed in
      let frac = Lp.solve_explicit inst in
      let g = Prng.create ~seed in
      ignore (check_allocation ~what:"rounding" inst (Rounding.solve ~trials:3 g inst frac));
      ignore
        (check_allocation ~what:"adaptive" inst
           (Rounding.solve_adaptive ~trials:3 g inst frac));
      ignore (check_allocation ~what:"greedy" inst (Greedy.from_lp inst frac));
      let engine = Engine.create ~warm_start:true () in
      let job = Engine.job ~algorithm:Engine.Adaptive ~seed ~trials:3 ~id:0 inst in
      let r = Engine.run_job engine job in
      ignore (check_allocation ~what:"engine" inst r.Engine.allocation);
      (* the engine's welfare accounting must match the allocation it returns *)
      Floats.approx_eq r.Engine.welfare (Allocation.value inst r.Engine.allocation))

(* ---------- engine determinism under sharding ---------------------------- *)

let render results =
  results
  |> Array.map (fun r -> Serialize.allocation_to_string r.Engine.allocation)
  |> Array.to_list |> String.concat "--\n"

let prop_engine_batch_deterministic =
  QCheck.Test.make
    ~name:"engine batches byte-identical: sequential vs sharded (warm off)" ~count:8
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let specs =
        [
          Workload.spec ~model:Workload.Protocol ~n:10 ~k:2 ~seed ~repeat:3 ();
          Workload.spec ~model:Workload.Random_graph ~n:9 ~k:2 ~seed:(seed + 1)
            ~algorithm:Engine.Lp_round ~repeat:2 ();
        ]
      in
      (* warm start off: each job depends only on its own seed, so results
         must be byte-identical whatever the domain count — and identical to
         running each job alone on a fresh engine. *)
      let batch domains =
        let engine = Engine.create ~warm_start:false () in
        let jobs = Workload.expand engine specs in
        fst (Engine.run_batch ~domains engine jobs)
      in
      let seq = batch 1 and par = batch 3 in
      let single =
        let engine = Engine.create ~warm_start:false () in
        Workload.expand engine specs
        |> List.map (fun j ->
               Engine.run_job (Engine.create ~warm_start:false ()) j)
        |> Array.of_list
      in
      let a = render seq and b = render par and c = render single in
      if a <> b then QCheck.Test.fail_reportf "1-domain and 3-domain batches differ";
      if a <> c then QCheck.Test.fail_reportf "batch and single-job runs differ";
      true)

(* ---------- serialization round-trip ------------------------------------ *)

(* Digest of the whole text serialisation: conflict, ordering, k, ρ,
   availability and every bid value. *)
let full_digest inst = Digest.string (Serialize.instance_to_string inst)

let prop_serialize_round_trip =
  QCheck.Test.make ~name:"instance serialization round-trips (incl. fingerprint)"
    ~count:30
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let inst = random_geometric_instance seed in
      let text = Serialize.instance_to_string inst in
      let back = Serialize.instance_of_string text in
      (* the round-trip must preserve everything the format captures:
         re-serialising gives the same bytes, hence the same fingerprint *)
      if Serialize.instance_to_string back <> text then
        QCheck.Test.fail_reportf "re-serialisation differs (seed %d)" seed;
      if full_digest back <> full_digest inst then
        QCheck.Test.fail_reportf "fingerprint not preserved (seed %d)" seed;
      if Serialize.shape_fingerprint back <> Serialize.shape_fingerprint inst then
        QCheck.Test.fail_reportf "shape fingerprint not preserved (seed %d)" seed;
      (* spot-check semantic equality: same n/k and same value on every
         support bundle of every bidder *)
      if Instance.n back <> Instance.n inst || back.Instance.k <> inst.Instance.k then
        QCheck.Test.fail_reportf "n/k not preserved (seed %d)" seed;
      Array.iteri
        (fun v bidder ->
          List.iter
            (fun (b, _) ->
              let value = Valuation.value bidder b
              and value' = Valuation.value back.Instance.bidders.(v) b in
              if not (Floats.approx_eq ~eps:1e-9 value value') then
                QCheck.Test.fail_reportf
                  "bidder %d: value of bundle %d changed %.9f -> %.9f" v
                  (Bundle.to_int b) value value')
            (Valuation.support bidder ~k:inst.Instance.k))
        inst.Instance.bidders;
      true)

let prop_revalue_preserves_shape =
  QCheck.Test.make
    ~name:"Workload.revalue preserves the LP shape fingerprint, not the full one"
    ~count:20
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let inst = random_geometric_instance seed in
      let jittered = Workload.revalue ~seed:(seed + 17) inst in
      Serialize.shape_fingerprint jittered = Serialize.shape_fingerprint inst
      && full_digest jittered <> full_digest inst)

(* ---------- cache keys --------------------------------------------------- *)

let key = Serialize.conflict_fingerprint

(* A random graph on [n >= 104] vertices plus three distinct vertices
   [a b c >= 101] with edge/entry (a, b) present and (a, c) and entry
   (b, a) absent: moving one entry among them keeps every count and changes
   only bytes that a tag-only encoding could confuse with a tag ('e' is
   101). *)
type fixture = {
  n : int;
  edges : (int * int) list; (* u < v, includes (min a b, max a b) *)
  entries : (int * int * float) list; (* distinct positive directed pairs *)
  a : int;
  b : int;
  c : int;
}

let random_fixture seed =
  let g = Prng.create ~seed in
  let n = 104 + Prng.int g 16 in
  let pick = Prng.sample_without_replacement g 3 (n - 101) in
  let a = 101 + pick.(0) and b = 101 + pick.(1) and c = 101 + pick.(2) in
  let involves_ac u v = (u = a && v = c) || (u = c && v = a) in
  let edges = ref [] and entries = ref [] in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && not (involves_ac u v) then begin
        let forced = (u = a && v = b) || (u = b && v = a) in
        if u < v && (forced || Prng.bernoulli g 0.05) then edges := (u, v) :: !edges;
        if (u = a && v = b) || ((u, v) <> (b, a) && Prng.bernoulli g 0.05) then
          entries := (u, v, Prng.uniform_in g 0.01 2.0) :: !entries
      end
    done
  done;
  { n; edges = List.rev !edges; entries = List.rev !entries; a; b; c }

let norm (u, v) = (min u v, max u v)

let prop_conflict_key_edits =
  QCheck.Test.make
    ~name:"conflict keys differ after one edge, ulp, high-vertex or channel edit"
    ~count:20
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let f = random_fixture seed in
      let differs what k1 k2 =
        if k1 = k2 then QCheck.Test.fail_reportf "%s: key unchanged (seed %d)" what seed
      in
      let unw edges = key (Instance.Unweighted (Graph.of_edges f.n edges)) in
      let wtd entries =
        key (Instance.Edge_weighted (Weighted_fixture.of_entries f.n entries))
      in
      let base_u = unw f.edges and base_w = wtd f.entries in
      (* one edge / entry removed, one added *)
      let ab = norm (f.a, f.b) and ac = norm (f.a, f.c) in
      differs "edge removed" base_u (unw (List.filter (( <> ) ab) f.edges));
      differs "edge added" base_u (unw (ac :: f.edges));
      let without_ab = List.filter (fun (u, v, _) -> (u, v) <> (f.a, f.b)) f.entries in
      let x_ab =
        List.find_map (fun (u, v, x) -> if (u, v) = (f.a, f.b) then Some x else None) f.entries
        |> Option.get
      in
      differs "entry removed" base_w (wtd without_ab);
      differs "entry added" base_w (wtd ((f.a, f.c, x_ab) :: f.entries));
      (* one weight one ulp up *)
      differs "weight + 1 ulp" base_w (wtd ((f.a, f.b, Float.succ x_ab) :: without_ab));
      (* one edge / entry moved between vertices >= 101 *)
      differs "high edge moved" base_u (unw (ac :: List.filter (( <> ) ab) f.edges));
      differs "high entry moved" base_w (wtd ((f.a, f.c, x_ab) :: without_ab));
      differs "entry reversed" base_w (wtd ((f.b, f.a, x_ab) :: without_ab));
      (* one edge moved from channel 0 to channel 1 *)
      let others = List.filter (( <> ) ab) f.edges in
      let per_channel e0 e1 =
        key (Instance.Per_channel [| Graph.of_edges f.n e0; Graph.of_edges f.n e1 |])
      in
      differs "edge moved between channels" (per_channel f.edges others)
        (per_channel others f.edges);
      (* the same graph, unweighted vs embedded as weights *)
      let gr = Graph.of_edges f.n f.edges in
      differs "unweighted vs weighted embedding" base_u
        (key (Instance.Edge_weighted (Weighted.of_graph gr)));
      (* the LP shape key sees the same edit *)
      let shape edges =
        Serialize.shape_fingerprint
          (Instance.make ~conflict:(Instance.Unweighted (Graph.of_edges f.n edges)) ~k:1
             ~bidders:(Array.make f.n (Valuation.Additive [| 1.0 |]))
             ~ordering:(Sa_graph.Ordering.identity f.n) ~rho:1.0)
      in
      differs "shape key, high edge moved" (shape f.edges) (shape (ac :: others));
      true)

let prop_conflict_key_copy =
  QCheck.Test.make
    ~name:"conflict keys equal for copies"
    ~count:20
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let f = random_fixture seed in
      let wg = Weighted_fixture.of_entries f.n f.entries in
      let copy = Weighted.copy wg in
      if key (Instance.Edge_weighted wg) <> key (Instance.Edge_weighted copy) then
        QCheck.Test.fail_reportf "copy: keys differ (seed %d)" seed;
      true)

(* ---------- registration ------------------------------------------------- *)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_allocations_feasible_and_requested;
    QCheck_alcotest.to_alcotest prop_engine_batch_deterministic;
    QCheck_alcotest.to_alcotest prop_serialize_round_trip;
    QCheck_alcotest.to_alcotest prop_revalue_preserves_shape;
    QCheck_alcotest.to_alcotest prop_conflict_key_edits;
    QCheck_alcotest.to_alcotest prop_conflict_key_copy;
  ]
