(* Differential suite for the rounding plans and the active-set conflict
   resolution: [Derand] against the per-candidate enumeration it replaced
   ([Derand_reference]) — same bundle for every bidder, same value bits —
   on disk, random, SINR and random edge-weighted conflict graphs and every
   bidding language; one-vector plan passes at any number of levels and
   the randomized tiers of all four conflict kinds ([solve],
   [solve_adaptive], [solve_par] and the [_scaled] wrappers, which also
   must leave the PRNG and the rounding counters as the reference does)
   against the same reference; the candidate counter; and the pairwise
   independence of the affine family below p. *)

module Prng = Sa_util.Prng
module Bundle = Sa_val.Bundle
module Valuation = Sa_val.Valuation
module Vgen = Sa_val.Gen
module Weighted = Sa_graph.Weighted
module Ordering = Sa_graph.Ordering
module Generators = Sa_graph.Generators
module Inductive = Sa_graph.Inductive
module Instance = Sa_core.Instance
module Allocation = Sa_core.Allocation
module Lp = Sa_core.Lp_relaxation
module Rounding = Sa_core.Rounding
module Derand = Sa_core.Derand
module Reference = Derand_reference
module Workloads = Sa_exp.Workloads
module Metrics = Sa_telemetry.Metrics

(* ---------- fixtures ---------------------------------------------------- *)

let topologies =
  [| "disk"; "random-graph"; "sinr"; "random-weighted"; "asymmetric-weighted" |]

let languages =
  [| "xor"; "or"; "additive"; "unit-demand"; "symmetric"; "budget-additive"; "mixed";
     "ties" |]

(* Asymmetric weighted graph from random directed entries, some below the
   floor (left at 0). *)
let asymmetric_weighted g ~n =
  let entries = ref [] in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && Prng.float g 1.0 < 0.3 then
        entries := (u, v, Prng.uniform_in g 0.01 0.6) :: !entries
    done
  done;
  Weighted_fixture.of_entries ~floor:0.05 n !entries

let weighted_conflict wg =
  let pi = Ordering.of_order (Array.init (Weighted.n wg) Fun.id) in
  (Instance.Edge_weighted wg, pi, Float.max 1.0 (Inductive.rho_weighted wg pi).Inductive.rho)

(* "ties" values every bundle at its size, so many candidates tie; its
   f(0) is -0.0, which [Valuation.validate] accepts as zero. *)
let bidder g ~k = function
  | "xor" ->
      Vgen.random_xor g ~k ~bids:3 ~max_bundle:(min 3 k) ~dist:(Vgen.Uniform (1.0, 10.0))
  | "or" -> Vgen.random_or g ~k ~bids:3 ~max_bundle:(min 2 k) ~dist:(Vgen.Uniform (1.0, 10.0))
  | "additive" -> Vgen.random_additive g ~k ~dist:(Vgen.Uniform (0.0, 10.0))
  | "unit-demand" -> Vgen.random_unit_demand g ~k ~dist:(Vgen.Uniform (1.0, 10.0))
  | "symmetric" ->
      Vgen.random_symmetric g ~k ~dist:(Vgen.Uniform (1.0, 10.0)) ~concave:(Prng.bool g)
  | "budget-additive" -> Vgen.random_budget_additive g ~k ~dist:(Vgen.Uniform (1.0, 10.0))
  | "mixed" -> Vgen.random_mixed g ~k ~dist:(Vgen.Pareto { alpha = 1.5; xmin = 1.0 })
  | "ties" ->
      Valuation.Symmetric (Array.init (k + 1) (fun m -> if m = 0 then -0.0 else float_of_int m))
  | l -> invalid_arg l

(* An instance of [topo] with [n] bidders bidding in [lang]; [g] draws
   the random graphs and the bids. *)
let instance_of g ~seed ~topo ~lang ~n ~k =
  let conflict, ordering, rho =
    match topo with
    | "disk" ->
        let inst = Workloads.disk_instance ~seed ~n ~k () in
        (inst.Instance.conflict, inst.Instance.ordering, inst.Instance.rho)
    | "random-graph" ->
        let graph = Generators.gnp g ~n ~p:0.25 in
        let pi, degeneracy = Inductive.degeneracy_ordering graph in
        (Instance.Unweighted graph, pi, float_of_int (max 1 degeneracy))
    | "sinr" ->
        let inst, _ =
          Workloads.sinr_fixed_instance ~seed ~n ~k ~scheme:Sa_wireless.Sinr.Uniform ()
        in
        (inst.Instance.conflict, inst.Instance.ordering, inst.Instance.rho)
    | "random-weighted" ->
        weighted_conflict (Generators.random_weighted g ~n ~density:0.4 ~scale:0.6)
    | _ -> weighted_conflict (asymmetric_weighted g ~n)
  in
  let bidders = Array.init n (fun _ -> bidder g ~k lang) in
  let inst = Instance.make ~conflict ~k ~bidders ~ordering ~rho in
  (Printf.sprintf "%s/%s n=%d k=%d seed %d" topo lang n k seed, inst)

(* One instance per seed: topology and language from the seed, n <= 30. *)
let random_instance seed =
  let g = Prng.create ~seed in
  let n = 2 + Prng.int g 29 and k = 1 + Prng.int g 4 in
  let topo = topologies.(seed mod Array.length topologies) in
  let lang = languages.(seed / Array.length topologies mod Array.length languages) in
  instance_of g ~seed ~topo ~lang ~n ~k

let is_weighted inst =
  match inst.Instance.conflict with Instance.Edge_weighted _ -> true | _ -> false

let derand inst frac =
  if is_weighted inst then Derand.algorithm23_derand inst frac
  else Derand.algorithm1_derand inst frac

let reference inst frac =
  if is_weighted inst then Reference.algorithm23_derand inst frac
  else Reference.algorithm1_derand inst frac

let fail fmt = QCheck.Test.fail_reportf fmt

let seeds = QCheck.(int_range 1 100_000)

let bits inst alloc = Int64.bits_of_float (Allocation.value inst alloc)

let pp_alloc alloc =
  String.concat " " (Array.to_list (Array.map (fun b -> string_of_int (Bundle.to_int b)) alloc))

(* Same bundle for every bidder and the same value bits. *)
let check_same what ~stage inst got want =
  if got <> want then
    fail "%s: %s bundles differ:\n  got  %s\n  want %s" what stage (pp_alloc got)
      (pp_alloc want);
  if bits inst got <> bits inst want then fail "%s: %s value bits differ" what stage

(* ---------- derand = reference ------------------------------------------ *)

let prop_derand_matches_reference =
  QCheck.Test.make ~count:40 ~name:"Derand = per-candidate reference, bitwise" seeds
    (fun seed ->
      let what, inst = random_instance seed in
      let frac = Lp.solve_explicit inst in
      check_same what ~stage:"derand" inst (derand inst frac) (reference inst frac);
      true)

(* The uniforms of seed (a, b) in a plan of [levels] levels. *)
let level_uniforms ~levels ~a ~b n =
  Array.init n (fun v -> float_of_int (((a * v) + b) mod levels) /. float_of_int levels)

(* One-vector passes at level counts other than p, from 1 (every uniform
   0) to a few thousand (uniforms just below 1), at random scales. *)
let prop_plan_levels_match_reference =
  QCheck.Test.make ~count:100 ~name:"plan passes at any levels = reference, bitwise" seeds
    (fun seed ->
      let what, inst = random_instance seed in
      let frac = Lp.solve_explicit inst in
      let g = Prng.create ~seed:(seed + 1) in
      let n = Instance.n inst in
      let scale_down = Float.max 0.5 (Prng.float g 4.0) in
      let levels =
        match Prng.int g 3 with
        | 0 -> 1 + Prng.int g 4
        | 1 -> 1 + Prng.int g 200
        | _ -> 1000 + Prng.int g 4000
      in
      let plan = Rounding.plan ~levels inst frac ~scale_down in
      for _ = 1 to 10 do
        let a = Prng.int g levels and b = Prng.int g levels in
        Rounding.plan_slope plan ~a;
        let value = Rounding.plan_round_seed plan ~b in
        let got = Rounding.plan_result plan in
        let uniforms = level_uniforms ~levels ~a ~b n in
        let want = Reference.round_with_uniforms inst frac ~scale_down ~uniforms in
        let stage = Printf.sprintf "%d levels, seed (%d, %d)" levels a b in
        check_same what ~stage inst got want;
        if Int64.bits_of_float value <> bits inst got then
          fail "%s: %s: returned value bits differ from the result's" what stage;
        if is_weighted inst then begin
          if Rounding.is_partly_feasible inst got <> Reference.is_partly_feasible inst want
          then fail "%s: is_partly_feasible differs" what;
          let want3 = Reference.algorithm3 inst want in
          check_same what ~stage:"algorithm3" inst (Rounding.algorithm3 inst got) want3;
          let value3 = Rounding.plan_algorithm3 plan in
          check_same what ~stage:"plan_algorithm3" inst (Rounding.plan_result plan) want3;
          if Int64.bits_of_float value3 <> bits inst want3 then
            fail "%s: %s: plan_algorithm3 value bits differ" what stage
        end
      done;
      true)

(* The randomized tiers draw from the PRNG in the same order and resolve
   over the active bidders: same allocation from the same seed. *)
let prop_randomized_tier_matches_reference =
  QCheck.Test.make ~count:100 ~name:"randomized rounding = reference, bitwise" seeds
    (fun seed ->
      let what, inst = random_instance seed in
      let frac = Lp.solve_explicit inst in
      for trial = 0 to 3 do
        let scale_down = 4.0 /. float_of_int (1 + trial) in
        let rng () = Prng.create ~seed:(seed + trial) in
        if is_weighted inst then begin
          let got = Rounding.algorithm2_scaled (rng ()) inst frac ~scale_down in
          let want = Reference.algorithm2_scaled (rng ()) inst frac ~scale_down in
          check_same what ~stage:"algorithm2" inst got want;
          check_same what ~stage:"algorithm3" inst (Rounding.algorithm3 inst got)
            (Reference.algorithm3 inst want)
        end
        else
          check_same what ~stage:"algorithm1" inst
            (Rounding.algorithm1_scaled (rng ()) inst frac ~scale_down)
            (Reference.algorithm1_scaled (rng ()) inst frac ~scale_down)
      done;
      true)

(* Condition (5) and Algorithm 3 on arbitrary (not partly feasible)
   allocations, where many bidders conflict. *)
let prop_resolution_on_dense_allocations =
  QCheck.Test.make ~count:100 ~name:"algorithm3/is_partly_feasible = reference on dense input"
    seeds (fun seed ->
      let what, inst = random_instance seed in
      if is_weighted inst then begin
        let g = Prng.create ~seed:(seed + 2) in
        let full = Bundle.full inst.Instance.k in
        for _ = 1 to 10 do
          let alloc =
            Array.init (Instance.n inst) (fun _ ->
                if Prng.bool g then Bundle.inter full (Bundle.of_int (1 + Prng.int g 15))
                else Bundle.empty)
          in
          check_same what ~stage:"algorithm3" inst (Rounding.algorithm3 inst alloc)
            (Reference.algorithm3 inst alloc);
          if Rounding.is_partly_feasible inst alloc <> Reference.is_partly_feasible inst alloc
          then fail "%s: is_partly_feasible differs" what
        done
      end;
      true)

(* Each candidate of the bucketed enumeration, not only the best: seed
   (a, b) of a plan built with [~levels:p] is the pass at the uniforms
   h_{a,b}(v) = ((a·v + b) mod p)/p.  Slopes are revisited out of order,
   so a stale bucket would show. *)
let prop_plan_seed_matches_reference =
  QCheck.Test.make ~count:60 ~name:"plan_round_seed = reference pass at h_{a,b}, bitwise" seeds
    (fun seed ->
      let what, inst = random_instance seed in
      let frac = Lp.solve_explicit inst in
      let g = Prng.create ~seed:(seed + 3) in
      let n = Instance.n inst and p = Derand.prime in
      let scale_down = Float.max 0.5 (Prng.float g 4.0) in
      let plan = Rounding.plan ~levels:p inst frac ~scale_down in
      let uniforms = Array.make n 0.0 in
      for _ = 1 to 4 do
        let a = Prng.int g p in
        Rounding.plan_slope plan ~a;
        for _ = 1 to 5 do
          let b = Prng.int g p in
          let value = Rounding.plan_round_seed plan ~b in
          let got = Rounding.plan_result plan in
          for v = 0 to n - 1 do
            uniforms.(v) <- float_of_int (Derand.hash ~a ~b v) /. float_of_int p
          done;
          let stage = Printf.sprintf "seed (%d, %d)" a b in
          check_same what ~stage inst got
            (Reference.round_with_uniforms inst frac ~scale_down ~uniforms);
          if Int64.bits_of_float value <> bits inst got then
            fail "%s: %s: returned value bits differ from the result's" what stage
        done
      done;
      true)

(* ---------- fixed cases ------------------------------------------------- *)

(* Above p = 101, bidders v and v + 101 draw the same level under every
   seed, so they land in the same bucket: the enumeration must still
   equal the reference there, on weighted (SINR) and unweighted (disk)
   conflicts.  The derand jobs of the sinr-fresh benchmark run at
   n = 80-110. *)
let test_derand_above_prime () =
  List.iter
    (fun (topo, n, seed) ->
      let g = Prng.create ~seed in
      let what, inst = instance_of g ~seed ~topo ~lang:"xor" ~n ~k:3 in
      let frac = Lp.solve_explicit inst in
      let with_columns = Array.map (fun cols -> cols <> []) (Lp.by_bidder frac ~n) in
      let shared = ref false in
      for v = 0 to n - 1 - Derand.prime do
        if with_columns.(v) && with_columns.(v + Derand.prime) then shared := true
      done;
      Alcotest.(check bool) (what ^ ": some v and v + 101 both have columns") true !shared;
      check_same what ~stage:"derand" inst (derand inst frac) (reference inst frac))
    [ ("sinr", 102, 21); ("sinr", 117, 22); ("disk", 110, 23); ("disk", 130, 24) ]

(* Every bidder values everything at zero: the LP has no columns, no
   candidate beats the empty allocation, and both return it. *)
let test_no_candidate_beats_empty () =
  List.iter
    (fun seed ->
      let _, inst = random_instance seed in
      let n = Instance.n inst and k = inst.Instance.k in
      let zero =
        Instance.make ~conflict:inst.Instance.conflict ~k
          ~bidders:(Array.make n (Valuation.Additive (Array.make k 0.0)))
          ~ordering:inst.Instance.ordering ~rho:inst.Instance.rho
      in
      let frac = Lp.solve_explicit zero in
      let got = derand zero frac in
      Alcotest.(check bool) "empty allocation" true (got = Allocation.empty n);
      Alcotest.(check bool) "= reference" true (got = reference zero frac))
    [ 5; 6; 7; 8; 9 ]

(* Every bidder values a bundle at the number of channels in it: many
   candidates tie, and the earliest must win. *)
let test_ties_keep_the_earliest () =
  List.iter
    (fun seed ->
      let what, inst = random_instance seed in
      let k = inst.Instance.k in
      let ties =
        Instance.make ~conflict:inst.Instance.conflict ~k
          ~bidders:(Array.make (Instance.n inst) (Valuation.Additive (Array.make k 1.0)))
          ~ordering:inst.Instance.ordering ~rho:inst.Instance.rho
      in
      let frac = Lp.solve_explicit ties in
      let got = derand ties frac and want = reference ties frac in
      Alcotest.(check bool) (what ^ ": bundles") true (got = want);
      Alcotest.(check int64) (what ^ ": value bits") (bits ties want) (bits ties got))
    [ 10; 11; 12; 13; 14 ]

(* Hand-built passes where a departure from the old code's comparisons
   or float order changes the outcome. *)
let column bidder bundle x = { Lp.bidder; bundle = Bundle.of_list bundle; x }

let fractional columns = { Lp.columns = Array.of_list columns; objective = 0.0 }

let one_channel = Valuation.Xor [ (Bundle.singleton 0, 1.0) ]

let check_alloc what inst got want =
  Alcotest.(check (array int)) what
    (Array.map Bundle.to_int want) (Array.map Bundle.to_int got);
  Alcotest.(check int64) (what ^ ": value bits") (bits inst want) (bits inst got)

(* Bidders 0-2 each send weight [ws.(i)] into bidder 3, all on channel 0
   and all before it in π. *)
let fan_in ws =
  let wg = Weighted.create 4 in
  Array.iteri (fun u x -> Weighted.set wg u 3 x) ws;
  Instance.make ~conflict:(Instance.Edge_weighted wg) ~k:1 ~bidders:(Array.make 4 one_channel)
    ~ordering:(Ordering.identity 4) ~rho:1.0

(* The pass in which every bidder draws level [level] of [levels] (slope
   0), at scale 1. *)
let pass_at_level inst frac ~levels ~level =
  let plan = Rounding.plan ~levels inst frac ~scale_down:1.0 in
  Rounding.plan_slope plan ~a:0;
  ignore (Rounding.plan_round_seed plan ~b:level);
  Rounding.plan_result plan

let test_float_order () =
  let all = Array.make 4 (Bundle.singleton 0) in
  let uniforms = Array.make 4 0.0 in
  let frac = fractional (List.init 4 (fun v -> column v [ 0 ] 1.0)) in
  (* (0.03 + 0.29) + 0.18 < 1/2 ≤ (0.18 + 0.29) + 0.03: bidder 3 keeps
     its channel only when the backward mass is summed in ascending id *)
  let inst = fan_in [| 0.03; 0.29; 0.18 |] in
  let got = pass_at_level inst frac ~levels:1 ~level:0 in
  check_alloc "Condition (5) sum order" inst got all;
  check_alloc "Condition (5) = reference" inst got
    (Reference.round_with_uniforms inst frac ~scale_down:1.0 ~uniforms);
  (* (0.06 + 0.57) + 0.37 < 1 ≤ (0.37 + 0.57) + 0.06, for Algorithm 3 *)
  let inst = fan_in [| 0.06; 0.57; 0.37 |] in
  check_alloc "Algorithm 3 sum order" inst (Rounding.algorithm3 inst all) all;
  check_alloc "Algorithm 3 = reference" inst (Rounding.algorithm3 inst all)
    (Reference.algorithm3 inst all)

(* The small-bundle side (three singletons) and the large one (one
   3-channel bundle) are both worth 3 when every bidder draws: the small
   side wins. *)
let side_tie () =
  ( Instance.make ~conflict:(Instance.Unweighted (Sa_graph.Graph.create 4)) ~k:4
      ~bidders:(Array.make 4 (Valuation.Symmetric [| 0.0; 1.0; 2.0; 3.0; 4.0 |]))
      ~ordering:(Ordering.identity 4) ~rho:1.0,
    fractional
      [ column 0 [ 0; 1; 2 ] 1.0; column 1 [ 3 ] 1.0; column 2 [ 3 ] 1.0; column 3 [ 3 ] 1.0 ] )

let test_pick_and_side_ties () =
  (* a uniform equal to a running sum is past that column, one below it
     picks it; bidder 2's columns come out of [Lp.by_bidder] as {0} then
     {1}.  With 4 levels at slope 0 every bidder draws u = level / 4. *)
  let inst =
    Instance.make ~conflict:(Instance.Unweighted (Sa_graph.Graph.create 3)) ~k:2
      ~bidders:(Array.make 3 one_channel) ~ordering:(Ordering.identity 3) ~rho:1.0
  in
  let frac =
    fractional
      [ column 0 [ 0 ] 0.5; column 1 [ 0 ] 0.25; column 2 [ 1 ] 0.25; column 2 [ 0 ] 0.25 ]
  in
  let none = Bundle.empty and zero = Bundle.singleton 0 and one = Bundle.singleton 1 in
  List.iter
    (fun (level, want) ->
      let what = Printf.sprintf "inverse-CDF boundary at u = %d/4" level in
      let got = pass_at_level inst frac ~levels:4 ~level in
      check_alloc what inst got want;
      check_alloc (what ^ " = reference") inst got
        (Reference.round_with_uniforms inst frac ~scale_down:1.0
           ~uniforms:(Array.make 3 (float_of_int level /. 4.0))))
    [ (0, [| zero; zero; zero |]); (1, [| zero; none; one |]); (2, [| none; none; none |]) ];
  let inst, frac = side_tie () in
  let uniforms = Array.make 4 0.0 in
  let got = pass_at_level inst frac ~levels:1 ~level:0 in
  let three = Bundle.singleton 3 in
  check_alloc "side tie" inst got [| Bundle.empty; three; three; three |];
  check_alloc "side tie = reference" inst got
    (Reference.round_with_uniforms inst frac ~scale_down:1.0 ~uniforms)

(* The per-level pick uses the same comparison as the uniforms scan: the
   column whose running sum is exactly 25/101 (x = 25/101, scale_down
   1) is picked at level 24 and passed over at level 25, whose uniform
   is that same float. *)
let test_level_pick_boundary () =
  let p = Derand.prime in
  let x = 25. /. 101. in
  let inst =
    Instance.make ~conflict:(Instance.Unweighted (Sa_graph.Graph.create 2)) ~k:2
      ~bidders:(Array.make 2 (Valuation.Additive [| 1.0; 2.0 |]))
      ~ordering:(Ordering.identity 2) ~rho:1.0
  in
  (* bidder 0's columns come out of [Lp.by_bidder] as {0} then {1} *)
  let frac = fractional [ column 0 [ 1 ] 0.5; column 0 [ 0 ] x; column 1 [ 1 ] 0.125 ] in
  let plan = Rounding.plan ~levels:p inst frac ~scale_down:1.0 in
  (* slope 0: every bidder draws level b *)
  Rounding.plan_slope plan ~a:0;
  List.iter
    (fun (level, want) ->
      ignore (Rounding.plan_round_seed plan ~b:level);
      let got = Rounding.plan_result plan in
      let what = Printf.sprintf "level %d" level in
      check_alloc what inst got want;
      let uniforms = Array.make 2 (float_of_int level /. float_of_int p) in
      check_alloc (what ^ " = reference") inst got
        (Reference.round_with_uniforms inst frac ~scale_down:1.0 ~uniforms))
    [
      (24, [| Bundle.singleton 0; Bundle.empty |]);
      (25, [| Bundle.singleton 1; Bundle.empty |]);
      (12, [| Bundle.singleton 0; Bundle.singleton 1 |]);
    ];
  let outside = Invalid_argument "Rounding.plan_slope: a outside [0, levels)" in
  Alcotest.check_raises "slope p" outside (fun () -> Rounding.plan_slope plan ~a:p);
  Alcotest.check_raises "plan without levels" outside (fun () ->
      Rounding.plan_slope (Rounding.plan inst frac ~scale_down:1.0) ~a:0);
  Alcotest.check_raises "seed before any slope"
    (Invalid_argument "Rounding.plan_round_seed: no plan_slope") (fun () ->
      ignore (Rounding.plan_round_seed (Rounding.plan ~levels:p inst frac ~scale_down:1.0) ~b:0))

(* ---------- randomized tiers = reference -------------------------------- *)

(* An instance of conflict kind [seed mod 4] (unweighted, edge-weighted,
   per-channel, per-channel weighted), n <= 30. *)
let tier_instance seed =
  let g = Prng.create ~seed in
  let n = 2 + Prng.int g 29 and k = 1 + Prng.int g 4 in
  let lang = languages.(seed / 4 mod Array.length languages) in
  let per_channel kind conflict =
    let bidders = Array.init n (fun _ -> bidder g ~k lang) in
    let inst =
      Instance.make ~conflict ~k ~bidders ~ordering:(Ordering.of_order (Prng.permutation g n))
        ~rho:(1.0 +. Prng.float g 2.0)
    in
    (Printf.sprintf "%s/%s n=%d k=%d seed %d" kind lang n k seed, inst)
  in
  match seed mod 4 with
  | 0 -> instance_of g ~seed ~topo:(if Prng.bool g then "disk" else "random-graph") ~lang ~n ~k
  | 1 -> instance_of g ~seed ~topo:topologies.(2 + Prng.int g 3) ~lang ~n ~k
  | 2 ->
      per_channel "per-channel"
        (Instance.Per_channel (Array.init k (fun _ -> Generators.gnp g ~n ~p:0.25)))
  | _ ->
      per_channel "per-channel-weighted"
        (Instance.Per_channel_weighted
           (Array.init k (fun j ->
                if j mod 2 = 0 then asymmetric_weighted g ~n
                else Generators.random_weighted g ~n ~density:0.4 ~scale:0.6)))

let rounding_counters () =
  ( Metrics.counter_value (Metrics.counter "core.rounding.trials"),
    Metrics.counter_value (Metrics.counter "core.rounding.improvements") )

(* [got] and [want] run from equal PRNG states: the same bundles, the same
   value bits, the same PRNG state afterwards and the same moves of the
   rounding counters. *)
let check_tier what ~stage ~seed inst got want =
  let g_got = Prng.create ~seed and g_want = Prng.create ~seed in
  let t0, i0 = rounding_counters () in
  let got = got g_got in
  let t1, i1 = rounding_counters () in
  let want = want g_want in
  let t2, i2 = rounding_counters () in
  check_same what ~stage inst got want;
  for _ = 1 to 3 do
    if Prng.int g_got 0x3FFFFFFF <> Prng.int g_want 0x3FFFFFFF then
      fail "%s: %s: PRNG state differs afterwards" what stage
  done;
  if (t1 - t0, i1 - i0) <> (t2 - t1, i2 - i1) then
    fail "%s: %s: counters moved by %d trials, %d improvements; reference %d, %d" what stage
      (t1 - t0) (i1 - i0) (t2 - t1) (i2 - i1)

(* Every randomized tier of [inst]'s conflict kind against the reference. *)
let check_tiers what inst frac ~seed ~trials ~scale_down =
  let tier stage got want = check_tier what ~stage ~seed inst got want in
  tier "solve"
    (fun g -> Rounding.solve ~trials g inst frac)
    (fun g -> Reference.solve ~trials g inst frac);
  tier "solve_adaptive"
    (fun g -> Rounding.solve_adaptive ~trials g inst frac)
    (fun g -> Reference.solve_adaptive ~trials g inst frac);
  tier "solve_par"
    (fun _ -> Rounding.solve_par ~domains:2 ~trials ~seed inst frac)
    (fun _ -> Reference.solve_par ~domains:1 ~trials ~seed inst frac);
  let scaled, reference =
    match inst.Instance.conflict with
    | Instance.Unweighted _ -> (Rounding.algorithm1_scaled, Reference.algorithm1_scaled)
    | Instance.Edge_weighted _ -> (Rounding.algorithm2_scaled, Reference.algorithm2_scaled)
    | Instance.Per_channel _ ->
        (Rounding.algorithm_asymmetric_scaled, Reference.algorithm_asymmetric_scaled)
    | Instance.Per_channel_weighted _ ->
        ( Rounding.algorithm_asymmetric_weighted_scaled,
          Reference.algorithm_asymmetric_weighted_scaled )
  in
  tier "_scaled"
    (fun g -> scaled g inst frac ~scale_down)
    (fun g -> reference g inst frac ~scale_down)

let prop_tiers_match_reference =
  QCheck.Test.make ~count:100 ~name:"randomized tiers = reference: bits, PRNG, counters" seeds
    (fun seed ->
      let what, inst = tier_instance seed in
      let frac = Lp.solve_explicit inst in
      let g = Prng.create ~seed:(seed + 4) in
      let trials = 1 + Prng.int g 8 and scale_down = Float.max 0.5 (Prng.float g 4.0) in
      check_tiers what inst frac ~seed ~trials ~scale_down;
      true)

(* Hand-built columns on each conflict kind, k = 1 and rho = 1 (canonical
   scales 2 and 4, the shortest ladders [Instance.make] admits): bidder 0
   holds x = 1 (p_any = 1 at scale 1: [Prng.bernoulli] draws nothing),
   bidder 1 x = 1.25 over two columns, bidder 2 two columns of x = 0 (no
   draw at all), bidder 3 an empty-bundle column it may pick; the same
   columns valued at 0; then [side_tie] at scale 1, where every bidder
   draws. *)
let test_tier_fixed_cases () =
  let weighted n =
    let wg = Weighted.create n in
    List.iter (fun (u, v, x) -> Weighted.set wg u v x) [ (0, 1, 0.3); (0, 3, 0.3); (1, 3, 0.6) ];
    wg
  in
  let kinds n =
    [
      ("unweighted", Instance.Unweighted (Sa_graph.Graph.of_edges n [ (0, 1); (1, 3) ]));
      ("edge-weighted", Instance.Edge_weighted (weighted n));
      ("per-channel", Instance.Per_channel [| Sa_graph.Graph.of_edges n [ (0, 1); (1, 3) ] |]);
      ("per-channel-weighted", Instance.Per_channel_weighted [| weighted n |]);
    ]
  in
  let frac =
    fractional
      [
        column 0 [ 0 ] 1.0;
        column 1 [ 0 ] 0.5;
        column 1 [ 0 ] 0.75;
        column 2 [ 0 ] 0.0;
        column 2 [ 0 ] 0.0;
        column 3 [] 0.6;
        column 3 [ 0 ] 0.3;
      ]
  in
  List.iter
    (fun (kind, conflict) ->
      let inst =
        Instance.make ~conflict ~k:1 ~bidders:(Array.make 4 one_channel)
          ~ordering:(Ordering.identity 4) ~rho:1.0
      in
      for seed = 1 to 20 do
        check_tiers kind inst frac ~seed ~trials:4 ~scale_down:1.0
      done)
    (kinds 4);
  (* every pass is worth 0 although bidders draw: [solve_adaptive] keeps
     its empty start and counts no improvement *)
  let zero =
    Instance.make ~conflict:(Instance.Unweighted (Sa_graph.Graph.create 4)) ~k:1
      ~bidders:(Array.make 4 (Valuation.Additive [| 0.0 |]))
      ~ordering:(Ordering.identity 4) ~rho:1.0
  in
  for seed = 1 to 5 do
    check_tiers "zero values" zero frac ~seed ~trials:4 ~scale_down:1.0
  done;
  let tie, frac = side_tie () in
  let three = Bundle.singleton 3 in
  check_alloc "side tie at scale 1" tie
    (Rounding.algorithm1_scaled (Prng.create ~seed:1) tie frac ~scale_down:1.0)
    [| Bundle.empty; three; three; three |];
  for seed = 1 to 20 do
    check_tiers "side tie" tie frac ~seed ~trials:4 ~scale_down:1.0
  done

let candidates () = Metrics.counter_value (Metrics.counter "core.derand.candidates")

let test_candidates_per_call () =
  List.iter
    (fun seed ->
      let what, inst = random_instance seed in
      let frac = Lp.solve_explicit inst in
      let before = candidates () in
      ignore (derand inst frac);
      Alcotest.(check int) (what ^ ": candidates") (Derand.prime * Derand.prime)
        (candidates () - before))
    [ 1; 2; 3; 4 ];
  Alcotest.(check int) "p² = 10 201" 10_201 (Derand.prime * Derand.prime)

(* (a, b) ↦ (h(u), h(v)) is a bijection Z_p² → Z_p² for u ≠ v mod p, which
   is what pairwise independence needs.  It holds for ids below p only:
   v and v + p get the same value under every (a, b). *)
let test_pairwise_bijection () =
  let p = Derand.prime in
  List.iter
    (fun (u, v) ->
      let seen = Array.make (p * p) false in
      for a = 0 to p - 1 do
        for b = 0 to p - 1 do
          let hu = Derand.hash ~a ~b u and hv = Derand.hash ~a ~b v in
          if hu < 0 || hu >= p || hv < 0 || hv >= p then
            Alcotest.failf "h out of Z_p for (%d, %d)" u v;
          let cell = (hu * p) + hv in
          if seen.(cell) then Alcotest.failf "(%d, %d): (h(u), h(v)) repeats" u v;
          seen.(cell) <- true
        done
      done)
    [ (0, 1); (0, 100); (1, 2); (3, 57); (42, 43); (50, 99); (99, 100) ];
  Alcotest.(check bool) "v and v + p collide" true
    (Derand.hash ~a:17 ~b:5 3 = Derand.hash ~a:17 ~b:5 (3 + p))

(* What the active-set sums rely on: a validated valuation values the
   empty bundle at exactly ±0, and validation rejects the NaNs that would
   break it. *)
let test_empty_bundle_is_zero () =
  let g = Prng.create ~seed:3 in
  for k = 1 to 5 do
    Array.iter
      (fun lang ->
        for _ = 1 to 20 do
          let b = bidder g ~k lang in
          Valuation.validate b ~k;
          let v = Valuation.value b Bundle.empty in
          if v <> 0.0 then Alcotest.failf "%s: value of the empty bundle %h" lang v
        done)
      languages
  done;
  let rejects what b =
    match Valuation.validate b ~k:2 with
    | () -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument _ -> ()
  in
  rejects "NaN on an empty XOR bid" (Valuation.Xor [ (Bundle.empty, Float.nan) ]);
  rejects "NaN budget"
    (Valuation.Budget_additive { values = [| 1.0; 2.0 |]; budget = Float.nan })

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    q prop_derand_matches_reference;
    q prop_plan_levels_match_reference;
    q prop_randomized_tier_matches_reference;
    q prop_resolution_on_dense_allocations;
    Alcotest.test_case "no candidate beats the empty allocation" `Quick
      test_no_candidate_beats_empty;
    Alcotest.test_case "value ties keep the earliest candidate" `Quick
      test_ties_keep_the_earliest;
    Alcotest.test_case "conflict sums keep ascending-id order" `Quick test_float_order;
    Alcotest.test_case "pick boundary and small/large side tie" `Quick
      test_pick_and_side_ties;
    Alcotest.test_case "10 201 candidates per call" `Quick test_candidates_per_call;
    Alcotest.test_case "(h(u), h(v)) is a bijection onto Z_p² below p" `Quick
      test_pairwise_bijection;
    Alcotest.test_case "validated valuations value the empty bundle at ±0" `Quick
      test_empty_bundle_is_zero;
    q prop_plan_seed_matches_reference;
    Alcotest.test_case "derand = reference at n in [102, 130]" `Quick
      test_derand_above_prime;
    Alcotest.test_case "level pick at a running sum of exactly 25/101" `Quick
      test_level_pick_boundary;
    q prop_tiers_match_reference;
    Alcotest.test_case "randomized tiers = reference: fixed cases" `Quick
      test_tier_fixed_cases;
  ]
