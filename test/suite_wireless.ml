(* Tests for Sa_wireless: links, protocol model, disk graphs, civilized
   graphs, SINR model, conflict-graph constructions, power control. *)

module Point = Sa_geom.Point
module Metric = Sa_geom.Metric
module Placement = Sa_geom.Placement
module Prng = Sa_util.Prng
module Graph = Sa_graph.Graph
module Weighted = Sa_graph.Weighted
module Ordering = Sa_graph.Ordering
module Inductive = Sa_graph.Inductive
module Link = Sa_wireless.Link
module Protocol = Sa_wireless.Protocol
module Disk = Sa_wireless.Disk
module Civilized = Sa_wireless.Civilized
module Sinr = Sa_wireless.Sinr
module Sinr_graph = Sa_wireless.Sinr_graph
module Power_control = Sa_wireless.Power_control

let random_links ~seed ~n ~side =
  let g = Prng.create ~seed in
  Link.of_point_pairs
    (Placement.random_links g ~n ~side ~min_len:0.5 ~max_len:2.0)

(* ---------- Link ----------------------------------------------------------- *)

let test_link_basic () =
  let sys =
    Link.of_point_pairs
      [| (Point.make 0.0 0.0, Point.make 1.0 0.0); (Point.make 5.0 0.0, Point.make 5.0 2.0) |]
  in
  Alcotest.(check int) "2 links" 2 (Link.n sys);
  Alcotest.(check (float 1e-12)) "len 0" 1.0 (Link.length sys 0);
  Alcotest.(check (float 1e-12)) "len 1" 2.0 (Link.length sys 1);
  Alcotest.(check (float 1e-12)) "cross distance" 5.0
    (Link.dist_sr sys ~from_sender_of:0 ~to_receiver_of:1
    |> fun d -> Float.abs (d -. sqrt 29.0) |> fun diff -> if diff < 1e-9 then 5.0 else d);
  let pi = Link.ordering_by_length sys in
  Alcotest.(check int) "shortest first" 0 (Ordering.vertex_at pi 0)

let test_protocol_conflict () =
  (* Two parallel short links far apart: no conflict; close: conflict. *)
  let far =
    Link.of_point_pairs
      [| (Point.make 0.0 0.0, Point.make 1.0 0.0); (Point.make 100.0 0.0, Point.make 101.0 0.0) |]
  in
  let g = Protocol.conflict_graph far ~delta:0.5 in
  Alcotest.(check int) "no conflict when far" 0 (Graph.num_edges g);
  let near =
    Link.of_point_pairs
      [| (Point.make 0.0 0.0, Point.make 1.0 0.0); (Point.make 1.2 0.0, Point.make 2.2 0.0) |]
  in
  let g' = Protocol.conflict_graph near ~delta:0.5 in
  Alcotest.(check int) "conflict when near" 1 (Graph.num_edges g')

let test_protocol_rho_bound_formula () =
  (* Δ = 1: ceil(pi / asin(1/4)) - 1 = ceil(12.44) - 1 = 12 *)
  Alcotest.(check int) "rho bound at delta=1" 12 (Protocol.rho_bound ~delta:1.0);
  Alcotest.(check bool) "smaller delta, larger bound" true
    (Protocol.rho_bound ~delta:0.2 > Protocol.rho_bound ~delta:2.0)

let test_protocol_rho_measured_within_bound () =
  let sys = random_links ~seed:31 ~n:40 ~side:12.0 in
  let delta = 1.0 in
  let g = Protocol.conflict_graph sys ~delta in
  let pi = Protocol.ordering sys in
  let e = Inductive.rho_unweighted g pi in
  let bound = float_of_int (Protocol.rho_bound ~delta) in
  Alcotest.(check bool)
    (Printf.sprintf "rho(pi) %.0f <= Prop 9 bound %.0f" e.Inductive.rho bound)
    true
    (e.Inductive.rho <= bound +. 1e-9)

let test_80211_contains_protocol () =
  (* The bidirectional model is more conservative: its conflict graph
     contains the protocol-model edges. *)
  let sys = random_links ~seed:37 ~n:30 ~side:10.0 in
  let gp = Protocol.conflict_graph sys ~delta:0.5 in
  let gb = Protocol.conflict_graph_80211 sys ~delta:0.5 in
  Graph.iter_edges gp (fun u v ->
      if not (Graph.mem_edge gb u v) then
        Alcotest.failf "protocol edge (%d,%d) missing in 802.11 graph" u v)

(* ---------- Disk graphs ---------------------------------------------------- *)

let test_disk_conflict () =
  let d =
    Disk.make
      [| Point.make 0.0 0.0; Point.make 3.0 0.0; Point.make 10.0 0.0 |]
      [| 2.0; 2.0; 1.0 |]
  in
  let g = Disk.conflict_graph d in
  Alcotest.(check bool) "overlapping disks conflict" true (Graph.mem_edge g 0 1);
  Alcotest.(check bool) "distant disk free" false (Graph.mem_edge g 0 2)

let test_disk_rho_within_5 () =
  let g = Prng.create ~seed:41 in
  for _ = 1 to 5 do
    let d = Disk.random g ~n:30 ~side:10.0 ~rmin:0.5 ~rmax:2.0 in
    let cg = Disk.conflict_graph d in
    let e = Inductive.rho_unweighted cg (Disk.ordering d) in
    if e.Inductive.rho > float_of_int Disk.rho_bound +. 1e-9 then
      Alcotest.failf "disk rho %.0f > 5" e.Inductive.rho
  done

let test_distance2_coloring_superset () =
  let g = Prng.create ~seed:43 in
  let d = Disk.random g ~n:20 ~side:8.0 ~rmin:0.5 ~rmax:1.5 in
  let g1 = Disk.conflict_graph d in
  let g2 = Disk.distance2_coloring_graph d in
  Graph.iter_edges g1 (fun u v ->
      if not (Graph.mem_edge g2 u v) then Alcotest.failf "dist-2 lost an edge")

let test_distance2_matching () =
  let g = Prng.create ~seed:47 in
  let d = Disk.random g ~n:12 ~side:6.0 ~rmin:0.8 ~rmax:1.5 in
  let mg, pi, edge_map = Disk.distance2_matching d in
  Alcotest.(check int) "one bidder per disk edge"
    (Graph.num_edges (Disk.conflict_graph d))
    (Graph.n mg);
  Alcotest.(check int) "ordering matches" (Graph.n mg) (Ordering.n pi);
  (* adjacent disk-edges (sharing an endpoint) must conflict *)
  let m = Array.length edge_map in
  for e = 0 to m - 1 do
    for f = e + 1 to m - 1 do
      let a, b = edge_map.(e) and c, d' = edge_map.(f) in
      if (a = c || a = d' || b = c || b = d') && not (Graph.mem_edge mg e f) then
        Alcotest.failf "adjacent edges %d %d not in conflict" e f
    done
  done

(* ---------- Civilized graphs ------------------------------------------------ *)

let test_civilized_random () =
  let g = Prng.create ~seed:53 in
  let c = Civilized.random g ~n:25 ~side:10.0 ~r:2.0 ~s:1.0 ~edge_prob:0.8 in
  Alcotest.(check bool) "some points placed" true (Civilized.n c > 5);
  (* separation respected *)
  let pts = Civilized.points c in
  Array.iteri
    (fun i p ->
      Array.iteri
        (fun j q -> if i < j && Point.dist p q < 1.0 -. 1e-9 then Alcotest.failf "separation violated")
        pts)
    pts

let test_civilized_rho_bound () =
  let g = Prng.create ~seed:59 in
  let r = 2.0 and s = 1.0 in
  let c = Civilized.random g ~n:25 ~side:8.0 ~r ~s ~edge_prob:0.9 in
  let g2 = Civilized.distance2_coloring_graph c in
  (* Prop 18 holds for ANY ordering *)
  let rng = Prng.create ~seed:60 in
  let pi = Ordering.of_order (Prng.permutation rng (Civilized.n c)) in
  let e = Inductive.rho_unweighted g2 pi in
  Alcotest.(check bool)
    (Printf.sprintf "rho %.0f <= bound %.0f" e.Inductive.rho (Civilized.rho_bound ~r ~s))
    true
    (e.Inductive.rho <= Civilized.rho_bound ~r ~s +. 1e-9)

(* ---------- SINR ------------------------------------------------------------ *)

let params = { Sinr.alpha = 3.0; beta = 1.5; noise = 0.1 }

let test_sinr_single_link () =
  let sys = Link.of_point_pairs [| (Point.make 0.0 0.0, Point.make 1.0 0.0) |] in
  let powers = Sinr.powers sys params Sinr.Uniform in
  (* alone: SINR = p/(d^a * noise) = 1/0.1 = 10 >= beta *)
  Alcotest.(check bool) "single link feasible" true (Sinr.feasible sys params ~powers [ 0 ]);
  Alcotest.(check (float 1e-9)) "sinr value" 10.0
    (Sinr.sinr sys params ~powers ~active:[ 0 ] 0)

let test_sinr_interference () =
  (* Two identical links very close: infeasible together under uniform
     power; far apart: feasible. *)
  let close_sys =
    Link.of_point_pairs
      [| (Point.make 0.0 0.0, Point.make 1.0 0.0); (Point.make 0.0 0.3, Point.make 1.0 0.3) |]
  in
  let powers = Sinr.powers close_sys params Sinr.Uniform in
  Alcotest.(check bool) "close links clash" false
    (Sinr.feasible close_sys params ~powers [ 0; 1 ]);
  let far_sys =
    Link.of_point_pairs
      [| (Point.make 0.0 0.0, Point.make 1.0 0.0); (Point.make 0.0 50.0, Point.make 1.0 50.0) |]
  in
  let powers' = Sinr.powers far_sys params Sinr.Uniform in
  Alcotest.(check bool) "far links coexist" true
    (Sinr.feasible far_sys params ~powers:powers' [ 0; 1 ])

let test_power_schemes () =
  let sys = random_links ~seed:61 ~n:10 ~side:8.0 in
  let uniform = Sinr.powers sys params Sinr.Uniform in
  Alcotest.(check bool) "uniform all 1" true (Array.for_all (fun p -> p = 1.0) uniform);
  let linear = Sinr.powers sys params Sinr.Linear in
  Array.iteri
    (fun i p ->
      Alcotest.(check (float 1e-9)) "linear = d^alpha" (Link.length sys i ** 3.0) p)
    linear;
  let sq = Sinr.powers sys params Sinr.Square_root in
  Array.iteri
    (fun i p ->
      Alcotest.(check (float 1e-9)) "sqrt scheme" (Link.length sys i ** 1.5) p)
    sq

let test_affectance_capped () =
  let sys = random_links ~seed:67 ~n:8 ~side:4.0 in
  let powers = Sinr.powers sys params Sinr.Uniform in
  for i = 0 to 7 do
    for j = 0 to 7 do
      if i <> j then begin
        let a = Sinr.affectance sys params ~powers j i in
        if a < 0.0 || a > 1.0 then Alcotest.failf "affectance out of [0,1]: %f" a
      end
    done
  done

(* ---------- Proposition 11 graph -------------------------------------------- *)

let test_prop11_sinr_implies_independent () =
  (* The safe direction of the equivalence holds exactly: an SINR-feasible
     set is independent in the (1+eps)-corrected weighted graph. *)
  let sys = random_links ~seed:71 ~n:20 ~side:15.0 in
  let powers = Sinr.powers sys params Sinr.Linear in
  let wg = Sinr_graph.prop11_graph sys params ~powers in
  let g = Prng.create ~seed:72 in
  let failures = ref 0 in
  for _ = 1 to 200 do
    let size = 1 + Prng.int g 6 in
    let set = Array.to_list (Prng.sample_without_replacement g size 20) in
    let sinr_ok = Sinr.feasible sys params ~powers set in
    let indep = Weighted.is_independent wg set in
    if sinr_ok && not indep then incr failures
  done;
  Alcotest.(check int) "SINR => independent, always" 0 !failures

let test_prop11_independent_implies_near_sinr () =
  (* Conversely, independence implies SINR within the (1+eps) slack. *)
  let sys = random_links ~seed:73 ~n:20 ~side:15.0 in
  let powers = Sinr.powers sys params Sinr.Uniform in
  let wg = Sinr_graph.prop11_graph sys params ~powers in
  let eps = Sinr_graph.prop11_epsilon sys params in
  let relaxed = params.Sinr.beta /. (1.0 +. eps) in
  let g = Prng.create ~seed:74 in
  let failures = ref 0 in
  for _ = 1 to 200 do
    let size = 1 + Prng.int g 6 in
    let set =
      Array.to_list (Prng.sample_without_replacement g size 20)
      (* The equivalence presumes each link can at least overcome ambient
         noise by itself; links that cannot are infeasible in isolation yet
         vacuously "independent" as singletons. *)
      |> List.filter (fun i -> Sinr.feasible sys params ~powers [ i ])
    in
    if Weighted.is_independent wg set then
      List.iter
        (fun i ->
          if Sinr.sinr sys params ~powers ~active:set i < relaxed -. 1e-9 then
            incr failures)
        set
  done;
  Alcotest.(check int) "independent => SINR within (1+eps)" 0 !failures

let test_prop11_rho_moderate () =
  (* Lemma 12 / Prop 11: with a monotone scheme and decreasing-length
     ordering, rho stays small (O(log n)); sanity-check it is far below n. *)
  let n = 40 in
  let sys = random_links ~seed:79 ~n ~side:20.0 in
  let powers = Sinr.powers sys params Sinr.Linear in
  let wg = Sinr_graph.prop11_graph sys params ~powers in
  let pi = Sinr_graph.ordering sys in
  let e = Inductive.rho_weighted ~node_limit:300_000 wg pi in
  Alcotest.(check bool)
    (Printf.sprintf "rho %.2f << n %d" e.Inductive.rho n)
    true
    (e.Inductive.rho < float_of_int n /. 2.0)

(* ---------- Theorem 13 graph + power control --------------------------------- *)

let test_tau_formula () =
  let t = Sinr_graph.tau params in
  Alcotest.(check (float 1e-12)) "tau" (1.0 /. (2.0 *. 27.0 *. 8.0)) t

let test_thm13_weights_directed () =
  let sys = random_links ~seed:83 ~n:10 ~side:8.0 in
  let wg = Sinr_graph.thm13_graph sys params in
  let pi = Sinr_graph.ordering sys in
  for u = 0 to 9 do
    for v = 0 to 9 do
      if u <> v && not (Ordering.precedes pi u v) then
        Alcotest.(check (float 1e-12)) "no weight against the ordering" 0.0
          (Weighted.w wg u v)
    done
  done

let test_power_control_feasible_on_independent_sets () =
  (* Theorem 13 / Kesselheim Thm 3: independent sets under the tau-weights
     admit feasible powers via the recursive assignment. *)
  let zero_noise = { params with Sinr.noise = 0.0 } in
  let g = Prng.create ~seed:89 in
  let failures = ref 0 and tested = ref 0 in
  for trial = 1 to 20 do
    let sys = random_links ~seed:(90 + trial) ~n:25 ~side:25.0 in
    let wg = Sinr_graph.thm13_graph sys zero_noise in
    (* find independent sets greedily from random orders *)
    let order = Prng.permutation g 25 in
    let set = ref [] in
    Array.iter
      (fun i ->
        if Weighted.is_independent wg (i :: !set) then set := i :: !set)
      order;
    if List.length !set >= 1 then begin
      incr tested;
      let r = Power_control.assign sys zero_noise !set in
      if not r.Power_control.feasible then incr failures
    end
  done;
  Alcotest.(check bool) "tested something" true (!tested > 0);
  Alcotest.(check int) "power control always feasible" 0 !failures

let test_power_control_singleton () =
  let sys = random_links ~seed:97 ~n:3 ~side:5.0 in
  let r = Power_control.assign sys { params with Sinr.noise = 0.0 } [ 1 ] in
  Alcotest.(check bool) "singleton feasible" true r.Power_control.feasible;
  Alcotest.(check bool) "power positive" true (r.Power_control.powers.(1) > 0.0)

let test_rayleigh_probabilities () =
  let sys =
    Link.of_point_pairs
      [| (Point.make 0.0 0.0, Point.make 1.0 0.0); (Point.make 0.0 30.0, Point.make 1.0 30.0) |]
  in
  let prm = { Sinr.alpha = 3.0; beta = 1.0; noise = 0.01 } in
  let powers = Sinr.powers sys prm Sinr.Uniform in
  let g = Prng.create ~seed:301 in
  (* a lone strong link: deterministic SINR = 1/0.01 = 100 >> beta, fading
     success probability should be high but strictly below 1 *)
  let p_solo =
    Sinr.rayleigh_success_probability g sys prm ~powers ~active:[ 0 ] ~trials:4000 0
  in
  Alcotest.(check bool) (Printf.sprintf "solo %.3f in (0.9, 1)" p_solo) true
    (p_solo > 0.9 && p_solo <= 1.0);
  (* far-apart links barely interfere: joint success also high *)
  let p_both =
    Sinr.rayleigh_all_success g sys prm ~powers ~active:[ 0; 1 ] ~trials:2000
  in
  Alcotest.(check bool) (Printf.sprintf "joint %.3f > 0.8" p_both) true (p_both > 0.8);
  (* joint success of both <= marginal of one (monotonicity, sampled) *)
  Alcotest.(check bool) "joint <= solo + noise" true (p_both <= p_solo +. 0.05)

let test_rayleigh_close_links_fail () =
  (* Two overlapping identical links: deterministic SINR is ~1 < beta;
     fading success must be low. *)
  let sys =
    Link.of_point_pairs
      [| (Point.make 0.0 0.0, Point.make 1.0 0.0); (Point.make 0.0 0.2, Point.make 1.0 0.2) |]
  in
  let prm = { Sinr.alpha = 3.0; beta = 2.0; noise = 0.0 } in
  let powers = Sinr.powers sys prm Sinr.Uniform in
  let g = Prng.create ~seed:302 in
  let p = Sinr.rayleigh_all_success g sys prm ~powers ~active:[ 0; 1 ] ~trials:2000 in
  Alcotest.(check bool) (Printf.sprintf "clashing links %.3f < 0.3" p) true (p < 0.3)

let test_rayleigh_empty_set () =
  let sys = random_links ~seed:303 ~n:3 ~side:5.0 in
  let g = Prng.create ~seed:304 in
  Alcotest.(check (float 1e-12)) "empty set trivially succeeds" 1.0
    (Sinr.rayleigh_all_success g sys params ~powers:(Sinr.powers sys params Sinr.Uniform)
       ~active:[] ~trials:10)

(* ---------- grid constructions vs naive all-pairs references ---------------- *)

(* Naive O(n^2) re-implementations of the constructors' predicates, written
   with the same float expressions; the grid versions must reproduce them
   exactly (the grid only prunes candidates, it never changes a predicate). *)

let naive_disk_graph d =
  let n = Disk.n d in
  let g = Graph.create n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Point.dist (Disk.point d i) (Disk.point d j) < Disk.radius d i +. Disk.radius d j
      then Graph.add_edge g i j
    done
  done;
  g

let naive_protocol_graph sys ~delta =
  let n = Link.n sys in
  let g = Graph.create n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if
        Link.dist_sr sys ~from_sender_of:j ~to_receiver_of:i
        < (1.0 +. delta) *. Link.length sys i
        || Link.dist_sr sys ~from_sender_of:i ~to_receiver_of:j
           < (1.0 +. delta) *. Link.length sys j
      then Graph.add_edge g i j
    done
  done;
  g

(* Replays Civilized.random's exact PRNG stream with naive loops: dart
   placement, then one bernoulli per lexicographic pair within r. *)
let naive_civilized ~seed ~n:target ~side ~r ~s ~edge_prob =
  let g = Prng.create ~seed in
  let placed = ref [] in
  let count = ref 0 and attempts = ref 0 in
  let max_attempts = target * 50 in
  while !count < target && !attempts < max_attempts do
    incr attempts;
    let p = Point.make (Prng.float g side) (Prng.float g side) in
    if List.for_all (fun q -> Point.dist p q >= s) !placed then begin
      placed := p :: !placed;
      incr count
    end
  done;
  let points = Array.of_list (List.rev !placed) in
  let m = Array.length points in
  let graph = Graph.create m in
  for i = 0 to m - 1 do
    for j = i + 1 to m - 1 do
      if Point.dist points.(i) points.(j) <= r && Prng.bernoulli g edge_prob then
        Graph.add_edge graph i j
    done
  done;
  (points, graph)

let prop_disk_grid_equals_naive =
  QCheck.Test.make ~name:"disk grid construction equals naive all-pairs" ~count:40
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let g = Prng.create ~seed in
      let n = 1 + Prng.int g 60 in
      let d = Disk.random g ~n ~side:(2.0 *. sqrt (float_of_int n)) ~rmin:0.3 ~rmax:1.5 in
      Graph.edges (Disk.conflict_graph d) = Graph.edges (naive_disk_graph d))

let prop_protocol_grid_equals_naive =
  QCheck.Test.make ~name:"protocol grid construction equals naive all-pairs"
    ~count:40
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let g = Prng.create ~seed in
      let n = 1 + Prng.int g 50 in
      let delta = Prng.uniform_in g 0.2 2.0 in
      let sys = random_links ~seed:(seed + 1) ~n ~side:(3.0 *. sqrt (float_of_int n)) in
      Graph.edges (Protocol.conflict_graph sys ~delta)
      = Graph.edges (naive_protocol_graph sys ~delta))

let prop_civilized_grid_equals_naive =
  QCheck.Test.make ~name:"civilized grid construction equals naive replay" ~count:40
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let n = 1 + Prng.int (Prng.create ~seed) 40 in
      let c =
        Civilized.random (Prng.create ~seed:(seed + 1)) ~n ~side:8.0 ~r:2.0 ~s:0.7
          ~edge_prob:0.6
      in
      let pts, naive =
        naive_civilized ~seed:(seed + 1) ~n ~side:8.0 ~r:2.0 ~s:0.7 ~edge_prob:0.6
      in
      Civilized.points c = pts && Graph.edges (Civilized.graph c) = Graph.edges naive)

let test_prop11_epsilon_formula () =
  (* pins prop11_epsilon to its definition: eps = beta/2 * min over ordered
     pairs (i, j), j <> i, of (d_i / d(s_j, r_i))^alpha — the grid
     farthest-point path must reproduce the naive double loop exactly *)
  let n = 30 in
  let sys = random_links ~seed:107 ~n ~side:12.0 in
  let eps = Sinr_graph.prop11_epsilon sys params in
  let best = ref infinity in
  for i = 0 to n - 1 do
    let di = Link.length sys i in
    for j = 0 to n - 1 do
      if i <> j then begin
        let d = Link.dist_sr sys ~from_sender_of:j ~to_receiver_of:i in
        let ratio = (di /. d) ** params.Sinr.alpha in
        if ratio < !best then best := ratio
      end
    done
  done;
  let expected = params.Sinr.beta /. 2.0 *. !best in
  Alcotest.(check (float 1e-15)) "epsilon = beta/2 * min ratio^alpha" expected eps;
  (* and it no longer depends on any power assignment: a single-link system
     degenerates to beta/2 *)
  let solo = Link.of_point_pairs [| (Point.make 0.0 0.0, Point.make 1.0 0.0) |] in
  Alcotest.(check (float 1e-15)) "n=1 gives beta/2" (params.Sinr.beta /. 2.0)
    (Sinr_graph.prop11_epsilon solo params)

let test_power_control_empty () =
  let sys = random_links ~seed:101 ~n:3 ~side:5.0 in
  let r = Power_control.assign sys params [] in
  Alcotest.(check bool) "empty set trivially feasible" true r.Power_control.feasible

let suite =
  [
    Alcotest.test_case "link system basics" `Quick test_link_basic;
    Alcotest.test_case "protocol conflicts" `Quick test_protocol_conflict;
    Alcotest.test_case "Prop 9 bound formula" `Quick test_protocol_rho_bound_formula;
    Alcotest.test_case "Prop 9: measured rho within bound" `Quick test_protocol_rho_measured_within_bound;
    Alcotest.test_case "802.11 graph contains protocol graph" `Quick test_80211_contains_protocol;
    Alcotest.test_case "disk conflicts" `Quick test_disk_conflict;
    Alcotest.test_case "Prop 15: disk rho <= 5" `Quick test_disk_rho_within_5;
    Alcotest.test_case "distance-2 coloring superset" `Quick test_distance2_coloring_superset;
    Alcotest.test_case "distance-2 matching structure" `Quick test_distance2_matching;
    Alcotest.test_case "civilized placement" `Quick test_civilized_random;
    Alcotest.test_case "Prop 18: civilized rho bound" `Quick test_civilized_rho_bound;
    Alcotest.test_case "SINR single link" `Quick test_sinr_single_link;
    Alcotest.test_case "SINR interference" `Quick test_sinr_interference;
    Alcotest.test_case "power schemes" `Quick test_power_schemes;
    Alcotest.test_case "affectance capped" `Quick test_affectance_capped;
    Alcotest.test_case "Prop 11: SINR => independent" `Quick test_prop11_sinr_implies_independent;
    Alcotest.test_case "Prop 11: independent => near-SINR" `Quick test_prop11_independent_implies_near_sinr;
    Alcotest.test_case "Prop 11: rho moderate" `Quick test_prop11_rho_moderate;
    Alcotest.test_case "tau formula" `Quick test_tau_formula;
    Alcotest.test_case "Thm 13 weights directed" `Quick test_thm13_weights_directed;
    Alcotest.test_case "Thm 13: power control on independent sets" `Quick test_power_control_feasible_on_independent_sets;
    Alcotest.test_case "power control singleton" `Quick test_power_control_singleton;
    Alcotest.test_case "power control empty set" `Quick test_power_control_empty;
    Alcotest.test_case "rayleigh fading probabilities" `Quick test_rayleigh_probabilities;
    Alcotest.test_case "rayleigh: clashing links fail" `Quick test_rayleigh_close_links_fail;
    Alcotest.test_case "rayleigh: empty set" `Quick test_rayleigh_empty_set;
    Alcotest.test_case "Prop 11: epsilon formula pinned" `Quick test_prop11_epsilon_formula;
    QCheck_alcotest.to_alcotest prop_disk_grid_equals_naive;
    QCheck_alcotest.to_alcotest prop_protocol_grid_equals_naive;
    QCheck_alcotest.to_alcotest prop_civilized_grid_equals_naive;
  ]
