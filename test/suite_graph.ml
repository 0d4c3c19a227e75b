(* Tests for Sa_graph: graphs, weighted graphs, orderings, independent sets,
   inductive independence. *)

module Graph = Sa_graph.Graph
module Weighted = Sa_graph.Weighted
module Ordering = Sa_graph.Ordering
module Indep = Sa_graph.Indep
module Inductive = Sa_graph.Inductive
module Generators = Sa_graph.Generators
module Prng = Sa_util.Prng

(* ---------- Graph -------------------------------------------------------- *)

let test_graph_basic () =
  let g = Graph.of_edges 4 [ (0, 1); (1, 2) ] in
  Alcotest.(check int) "n" 4 (Graph.n g);
  Alcotest.(check int) "m" 2 (Graph.num_edges g);
  Alcotest.(check bool) "edge 0-1" true (Graph.mem_edge g 0 1);
  Alcotest.(check bool) "edge 1-0 symmetric" true (Graph.mem_edge g 1 0);
  Alcotest.(check bool) "no edge 0-2" false (Graph.mem_edge g 0 2);
  Alcotest.(check (list int)) "neighbors of 1" [ 0; 2 ] (Graph.neighbors g 1);
  Alcotest.(check int) "degree" 2 (Graph.degree g 1);
  Alcotest.(check int) "max degree" 2 (Graph.max_degree g)

let test_graph_duplicate_edges () =
  let g = Graph.of_edges 3 [ (0, 1); (1, 0); (0, 1) ] in
  Alcotest.(check int) "merged" 1 (Graph.num_edges g)

let test_graph_self_loop_rejected () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self-loop")
    (fun () -> ignore (Graph.of_edges 3 [ (1, 1) ]))

let test_graph_clique_complement () =
  let c = Graph.clique 5 in
  Alcotest.(check int) "clique edges" 10 (Graph.num_edges c);
  let comp = Graph.complement c in
  Alcotest.(check int) "complement empty" 0 (Graph.num_edges comp)

let test_graph_induced () =
  let g = Graph.of_edges 5 [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  let sub = Graph.induced g [| 0; 1; 2 |] in
  Alcotest.(check int) "sub n" 3 (Graph.n sub);
  Alcotest.(check int) "sub m" 2 (Graph.num_edges sub)

let test_graph_independence () =
  let g = Graph.of_edges 4 [ (0, 1); (2, 3) ] in
  Alcotest.(check bool) "independent" true (Graph.is_independent g [ 0; 2 ]);
  Alcotest.(check bool) "not independent" false (Graph.is_independent g [ 0; 1 ])

(* ---------- Weighted ------------------------------------------------------ *)

let test_weighted_basic () =
  let wg = Weighted.create 3 in
  Weighted.set wg 0 1 0.4;
  Weighted.set wg 1 0 0.3;
  Alcotest.(check (float 1e-12)) "w directed" 0.4 (Weighted.w wg 0 1);
  Alcotest.(check (float 1e-12)) "wbar symmetric" 0.7 (Weighted.wbar wg 0 1);
  Alcotest.(check (float 1e-12)) "wbar other way" 0.7 (Weighted.wbar wg 1 0)

let test_weighted_independence () =
  let wg = Weighted.create 3 in
  Weighted.set wg 0 2 0.6;
  Weighted.set wg 1 2 0.6;
  (* each alone is fine with 2, but together they exceed 1 into vertex 2 *)
  Alcotest.(check bool) "pair ok" true (Weighted.is_independent wg [ 0; 2 ]);
  Alcotest.(check bool) "triple not ok" false (Weighted.is_independent wg [ 0; 1; 2 ]);
  Alcotest.(check bool) "senders only ok" true (Weighted.is_independent wg [ 0; 1 ])

let test_weighted_of_graph () =
  let g = Graph.of_edges 3 [ (0, 1) ] in
  let wg = Weighted.of_graph g in
  Alcotest.(check bool) "same independence (edge)" false
    (Weighted.is_independent wg [ 0; 1 ]);
  Alcotest.(check bool) "same independence (non-edge)" true
    (Weighted.is_independent wg [ 0; 2 ])

let test_weighted_mask_check () =
  let wg = Weighted.create 4 in
  Weighted.set wg 0 1 1.2;
  let mask = [| true; true; false; false |] in
  Alcotest.(check bool) "mask version agrees" false (Weighted.is_independent_arr wg mask);
  Alcotest.(check bool) "mask version agrees (ok set)" true
    (Weighted.is_independent_arr wg [| true; false; true; true |])

(* ---------- Ordering ------------------------------------------------------ *)

let test_ordering_basic () =
  let pi = Ordering.of_order [| 2; 0; 1 |] in
  Alcotest.(check int) "rank of 2" 0 (Ordering.rank pi 2);
  Alcotest.(check int) "vertex at 0" 2 (Ordering.vertex_at pi 0);
  Alcotest.(check bool) "2 precedes 0" true (Ordering.precedes pi 2 0);
  Alcotest.(check (list int)) "before 1" [ 2; 0 ] (Ordering.before pi 1);
  Alcotest.(check (list int)) "after 2" [ 0; 1 ] (Ordering.after pi 2)

let test_ordering_by_key () =
  let pi = Ordering.by_key 3 (fun v -> float_of_int (-v)) in
  Alcotest.(check int) "largest key first... smallest value" 2 (Ordering.vertex_at pi 0)

let test_ordering_reverse () =
  let pi = Ordering.of_order [| 0; 1; 2 |] in
  let rev = Ordering.reverse pi in
  Alcotest.(check int) "reversed" 2 (Ordering.vertex_at rev 0)

let test_ordering_backward_neighbors () =
  let g = Graph.of_edges 3 [ (0, 1); (1, 2) ] in
  let pi = Ordering.identity 3 in
  Alcotest.(check (list int)) "backward of 1" [ 0 ] (Ordering.backward_neighbors pi g 1);
  Alcotest.(check (list int)) "backward of 0" [] (Ordering.backward_neighbors pi g 0)

let test_ordering_not_permutation () =
  Alcotest.check_raises "dup" (Invalid_argument "Ordering.of_order: not a permutation")
    (fun () -> ignore (Ordering.of_order [| 0; 0; 1 |]))

(* ---------- Independent sets ---------------------------------------------- *)

let test_mis_path () =
  (* path of 5 vertices: MIS = {0,2,4} *)
  let g = Graph.of_edges 5 [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  let r = Indep.max_independent_set g in
  Alcotest.(check bool) "exact" true r.Indep.exact;
  Alcotest.(check int) "size 3" 3 r.Indep.value;
  Alcotest.(check bool) "is independent" true (Graph.is_independent g r.Indep.set)

let test_mwis_weights () =
  (* path 0-1-2; weights 1, 5, 1: MWIS = {1} *)
  let g = Graph.of_edges 3 [ (0, 1); (1, 2) ] in
  let r = Indep.max_weight_independent_set g ~weights:[| 1.0; 5.0; 1.0 |] in
  Alcotest.(check (float 1e-12)) "weight 5" 5.0 r.Indep.value;
  Alcotest.(check (list int)) "the middle vertex" [ 1 ] r.Indep.set

let test_mis_clique () =
  let g = Graph.clique 8 in
  let r = Indep.max_independent_set g in
  Alcotest.(check int) "MIS of clique = 1" 1 r.Indep.value

let test_greedy_weight_feasible () =
  let g = Prng.create ~seed:5 in
  let graph = Generators.gnp g ~n:20 ~p:0.3 in
  let weights = Array.init 20 (fun _ -> Prng.float g 10.0) in
  let set, total = Indep.greedy_weight graph ~weights in
  Alcotest.(check bool) "independent" true (Graph.is_independent graph set);
  Alcotest.(check bool) "total positive" true (total > 0.0)

let test_max_profit_weighted () =
  let wg = Weighted.create 3 in
  (* 0 and 1 heavily conflict; 2 is free *)
  Weighted.set wg 0 1 0.8;
  Weighted.set wg 1 0 0.8;
  let r =
    Indep.max_profit_weighted wg ~candidates:[| 0; 1; 2 |]
      ~profit:(fun v -> float_of_int (v + 1))
  in
  Alcotest.(check bool) "exact" true r.Indep.exact;
  (* {1,2} profit 5 beats {0,2} = 4 and {0,1,2} is infeasible (0.8+0.8>1?
     no: incoming into 1 is only w(0,1)+w(2,1)=0.8<1, into 0 is 0.8<1 —
     so {0,1,2} IS feasible with profit 6. *)
  Alcotest.(check (float 1e-12)) "profit" 6.0 r.Indep.value

let test_max_profit_weighted_blocked () =
  let wg = Weighted.create 2 in
  Weighted.set wg 0 1 1.0;
  let r =
    Indep.max_profit_weighted wg ~candidates:[| 0; 1 |] ~profit:(fun _ -> 1.0)
  in
  (* w(0,1) = 1 >= 1 blocks the pair *)
  Alcotest.(check (float 1e-12)) "only one" 1.0 r.Indep.value

(* ---------- Inductive independence ---------------------------------------- *)

let test_rho_clique () =
  (* For a clique, every backward neighbourhood is a clique: MIS = 1. *)
  let g = Graph.clique 6 in
  let e = Inductive.rho_unweighted g (Ordering.identity 6) in
  Alcotest.(check (float 1e-12)) "rho = 1" 1.0 e.Inductive.rho;
  Alcotest.(check bool) "exact" true e.Inductive.exact

let test_rho_star () =
  (* Star with centre last: backward neighbourhood of the centre is all
     leaves — an independent set of size n-1. *)
  let n = 6 in
  let g = Graph.of_edges n (List.init (n - 1) (fun i -> (i, n - 1))) in
  let e = Inductive.rho_unweighted g (Ordering.identity n) in
  Alcotest.(check (float 1e-12)) "rho = n-1" (float_of_int (n - 1)) e.Inductive.rho;
  Alcotest.(check int) "witness is the centre" (n - 1) e.Inductive.witness_vertex;
  (* Centre first: every leaf sees only the centre backward: rho = 1. *)
  let order = Array.of_list ((n - 1) :: List.init (n - 1) Fun.id) in
  let e' = Inductive.rho_unweighted g (Ordering.of_order order) in
  Alcotest.(check (float 1e-12)) "centre-first rho = 1" 1.0 e'.Inductive.rho

let test_degeneracy_ordering_bound () =
  let g = Prng.create ~seed:9 in
  let graph = Generators.gnp g ~n:25 ~p:0.2 in
  let pi, d = Inductive.degeneracy_ordering graph in
  let e = Inductive.rho_unweighted graph pi in
  Alcotest.(check bool)
    (Printf.sprintf "rho(pi) = %.0f <= degeneracy %d" e.Inductive.rho d)
    true
    (e.Inductive.rho <= float_of_int d +. 1e-9)

let test_rho_weighted_simple () =
  let wg = Weighted.create 3 in
  Weighted.set wg 0 2 0.4;
  Weighted.set wg 1 2 0.4;
  let e = Inductive.rho_weighted wg (Ordering.identity 3) in
  (* backward of 2 = {0,1}, independent together, mass 0.8 *)
  Alcotest.(check (float 1e-9)) "rho" 0.8 e.Inductive.rho;
  Alcotest.(check bool) "exact" true e.Inductive.exact

let test_check_bounds () =
  let g = Graph.of_edges 4 [ (0, 3); (1, 3); (2, 3) ] in
  let pi = Ordering.identity 4 in
  Alcotest.(check bool) "bound 3 holds" true
    (Inductive.check_unweighted_bound g pi ~rho:3 [ 0; 1; 2 ]);
  Alcotest.(check bool) "bound 2 fails" false
    (Inductive.check_unweighted_bound g pi ~rho:2 [ 0; 1; 2 ])

(* Ordering search for arbitrary edge-weighted graphs: repeatedly place
   *last*, among the remaining vertices, the one whose backward
   independent-set mass (Definition 2, restricted to the remaining set) is
   smallest — the weighted generalisation of the degeneracy ordering, a
   heuristic for small ρ(π).  Inner maxima are computed by branch and bound
   under [node_limit] (default 20_000 per step), falling back to greedy.
   No interference model needs it (each supplies its own π), so it lives
   here next to its two tests. *)
let greedy_weighted_ordering ?(node_limit = 20_000) wg =
  let size = Weighted.n wg in
  let remaining = Array.make size true in
  let positions = Array.make size (-1) in
  (* Mass a vertex would see if placed last among the current remaining
     set: max over independent subsets of the remaining candidates of the
     incoming symmetrised weight. *)
  let backward_mass v =
    let candidates =
      List.init size Fun.id
      |> List.filter (fun u -> remaining.(u) && u <> v && Weighted.wbar wg u v > 0.0)
      |> Array.of_list
    in
    if Array.length candidates = 0 then 0.0
    else
      let profit u = Weighted.wbar wg u v in
      (Indep.max_profit_weighted ~node_limit wg ~candidates ~profit).Indep.value
  in
  for pos = size - 1 downto 0 do
    let best = ref (-1) and best_mass = ref infinity in
    for v = 0 to size - 1 do
      if remaining.(v) then begin
        let mass = backward_mass v in
        if mass < !best_mass then begin
          best_mass := mass;
          best := v
        end
      end
    done;
    positions.(pos) <- !best;
    remaining.(!best) <- false
  done;
  Ordering.of_order positions

let test_greedy_weighted_ordering () =
  (* Weighted star: all weight flows into vertex 0 from the leaves.  The
     greedy ordering should place vertex 0 early (few backward neighbours)
     rather than last. *)
  let n = 8 in
  let wg = Weighted.create n in
  for u = 1 to n - 1 do
    Weighted.set wg u 0 0.3
  done;
  let pi = greedy_weighted_ordering wg in
  let rho_greedy = (Inductive.rho_weighted wg pi).Inductive.rho in
  (* centre-last identity ordering would pay ~0.9 (three 0.3-leaves form an
     independent set into 0)... compare against the worst ordering: centre
     at the very end. *)
  let worst = Ordering.of_order (Array.of_list (List.init (n - 1) (fun i -> i + 1) @ [ 0 ])) in
  let rho_worst = (Inductive.rho_weighted wg worst).Inductive.rho in
  Alcotest.(check bool)
    (Printf.sprintf "greedy %.3f <= worst %.3f" rho_greedy rho_worst)
    true (rho_greedy <= rho_worst +. 1e-9)

let prop_greedy_ordering_not_worse_than_random =
  QCheck.Test.make ~name:"greedy weighted ordering beats random (usually)" ~count:20
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let g = Prng.create ~seed in
      let wg = Generators.random_weighted g ~n:10 ~density:0.4 ~scale:0.5 in
      let greedy_pi = greedy_weighted_ordering wg in
      let random_pi = Ordering.of_order (Prng.permutation g 10) in
      let r_g = (Inductive.rho_weighted wg greedy_pi).Inductive.rho in
      let r_r = (Inductive.rho_weighted wg random_pi).Inductive.rho in
      (* greedy is a heuristic: allow slack, but it must not be much worse *)
      r_g <= r_r +. 0.5)

(* ---------- Weighted.Sparse boundary cases -------------------------------- *)

let test_sparse_empty_rows () =
  (* No entries at all: every row is empty, every dropped bound zero, and
     everything is trivially independent. *)
  let wg = Weighted.of_entries 4 ~w_min:0.5 [||] in
  Alcotest.(check bool) "sparse" true (Weighted.is_sparse wg);
  Alcotest.(check int) "nnz" 0 (Weighted.nnz wg);
  for v = 0 to 3 do
    Alcotest.(check (float 0.0)) "in_weight" 0.0 (Weighted.in_weight wg v);
    Alcotest.(check (float 0.0)) "dropped bound" 0.0 (Weighted.dropped_in_bound wg v)
  done;
  Alcotest.(check bool) "all vertices independent" true
    (Weighted.is_independent wg [ 0; 1; 2; 3 ])

let test_sparse_floor_boundary () =
  (* An entry exactly at the w_min floor is kept; one just below is dropped
     into the destination's bound.  The floor comparison is >=, not >. *)
  let wmin = 0.25 in
  let below = 0.25 -. 1e-9 in
  let wg = Weighted.of_entries 3 ~w_min:wmin [| (0, 2, wmin); (1, 2, below) |] in
  Alcotest.(check int) "only the exact-floor entry stored" 1 (Weighted.nnz wg);
  Alcotest.(check (float 0.0)) "exact-floor entry kept" wmin (Weighted.w wg 0 2);
  Alcotest.(check (float 0.0)) "below-floor entry zeroed" 0.0 (Weighted.w wg 1 2);
  Alcotest.(check (float 0.0)) "dropped bound = the below-floor mass" below
    (Weighted.dropped_in_bound wg 2);
  Alcotest.(check (float 0.0)) "in_weight counts stored mass only" wmin
    (Weighted.in_weight wg 2)

let test_sparse_all_dropped () =
  (* Every entry below the floor: the graph stores nothing, but each
     destination's dropped bound is the exact (same-order) sum of its
     unstored in-mass — dropped_in_bound is exact, not just an upper
     bound, when the caller enumerated every entry. *)
  let entries = [| (0, 2, 0.4); (1, 2, 0.5); (0, 1, 0.3) |] in
  let wg = Weighted.of_entries 3 ~w_min:1.0 entries in
  Alcotest.(check int) "nothing stored" 0 (Weighted.nnz wg);
  Alcotest.(check (float 0.0)) "v2 bound exact" (0.0 +. 0.4 +. 0.5)
    (Weighted.dropped_in_bound wg 2);
  Alcotest.(check (float 0.0)) "v1 bound exact" 0.3 (Weighted.dropped_in_bound wg 1);
  Alcotest.(check (float 0.0)) "v0 nothing dropped" 0.0 (Weighted.dropped_in_bound wg 0);
  (* zero-weight entries are elided without polluting the bound *)
  let wg0 = Weighted.of_entries 2 ~w_min:0.0 [| (0, 1, 0.0) |] in
  Alcotest.(check int) "zero entry elided" 0 (Weighted.nnz wg0);
  Alcotest.(check (float 0.0)) "zero entry adds no slack" 0.0
    (Weighted.dropped_in_bound wg0 1)

let test_sparse_dropped_in_seed () =
  (* Caller-supplied slack for never-enumerated entries adds on top of the
     below-floor mass. *)
  let wg =
    Weighted.of_entries 3 ~w_min:0.5 ~dropped_in:[| 0.0; 0.0; 0.125 |]
      [| (0, 2, 0.25); (1, 2, 0.75) |]
  in
  Alcotest.(check (float 0.0)) "seed + dropped mass" (0.125 +. 0.25)
    (Weighted.dropped_in_bound wg 2);
  Alcotest.(check (float 0.0)) "stored mass unaffected" 0.75
    (Weighted.in_weight wg 2)

let prop_sparse_mass_conserved =
  QCheck.Test.make ~count:100
    ~name:"sparse: stored in-weight + dropped bound = total in-mass"
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let g = Prng.create ~seed in
      let n = 2 + Prng.int g 8 in
      let wmin = Prng.float g 0.6 in
      let seen = Hashtbl.create 16 in
      let entries =
        List.init (Prng.int g (3 * n)) (fun _ ->
            let u = Prng.int g n and v = Prng.int g n in
            if u = v || Hashtbl.mem seen (u, v) then None
            else begin
              Hashtbl.add seen (u, v) ();
              Some (u, v, Prng.float g 1.0)
            end)
        |> List.filter_map Fun.id |> Array.of_list
      in
      let wg = Weighted.of_entries n ~w_min:wmin entries in
      let total = Array.make n 0.0 in
      Array.iter (fun (_, v, x) -> total.(v) <- total.(v) +. x) entries;
      List.for_all
        (fun v ->
          Float.abs
            (Weighted.in_weight wg v +. Weighted.dropped_in_bound wg v -. total.(v))
          < 1e-9)
        (List.init n Fun.id))

(* ---------- weighted profit B&B vs its per-node-lookup reference ----------- *)

(* [Indep.max_profit_weighted] as it was before it cached profits and
   pairwise weights per call: every node calls [profit] and [Weighted.w]
   afresh.  The cached search must agree with it bit for bit. *)
let max_profit_weighted_reference ~node_limit wg ~candidates ~profit =
  let cands = Array.copy candidates in
  Array.sort (fun a b -> compare (profit b) (profit a)) cands;
  let incoming = Array.make (Weighted.n wg) 0.0 in
  let feasible_with chosen u =
    let into_u = List.fold_left (fun acc v -> acc +. Weighted.w wg v u) 0.0 chosen in
    into_u < 1.0
    && List.for_all (fun v -> incoming.(v) +. Weighted.w wg u v < 1.0) chosen
  in
  let best_set = ref [] and best_p = ref 0.0 in
  let nodes = ref 0 in
  let rec go chosen cur_p remaining rem_total =
    incr nodes;
    if !nodes > node_limit then raise Exit;
    if cur_p > !best_p then begin
      best_p := cur_p;
      best_set := chosen
    end;
    match remaining with
    | [] -> ()
    | u :: rest ->
        if cur_p +. rem_total > !best_p then begin
          if feasible_with chosen u then begin
            List.iter (fun v -> incoming.(v) <- incoming.(v) +. Weighted.w wg u v) chosen;
            incoming.(u) <-
              List.fold_left (fun acc v -> acc +. Weighted.w wg v u) 0.0 chosen;
            go (u :: chosen) (cur_p +. profit u) rest (rem_total -. profit u);
            List.iter (fun v -> incoming.(v) <- incoming.(v) -. Weighted.w wg u v) chosen;
            incoming.(u) <- 0.0
          end;
          go chosen cur_p rest (rem_total -. profit u)
        end
  in
  let total = Array.fold_left (fun acc u -> acc +. profit u) 0.0 cands in
  match go [] 0.0 (Array.to_list cands) total with
  | () -> { Indep.set = !best_set; value = !best_p; exact = true }
  | exception Exit ->
      let gset, gp = Indep.greedy_profit_weighted wg ~candidates ~profit in
      if gp > !best_p then { Indep.set = gset; value = gp; exact = false }
      else { Indep.set = !best_set; value = !best_p; exact = false }

let prop_max_profit_weighted_matches_reference =
  QCheck.Test.make ~count:200
    ~name:"weighted profit B&B = per-node-lookup reference (bitwise)"
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let g = Prng.create ~seed in
      let n = 2 + Prng.int g 13 in
      let wg =
        if Prng.bool g then
          Weighted.of_function n (fun u v ->
              if u <> v && Prng.bernoulli g 0.5 then Prng.float g 0.7 else 0.0)
        else
          let entries =
            List.concat_map
              (fun u ->
                List.filter_map
                  (fun v ->
                    if u <> v && Prng.bernoulli g 0.4 then Some (u, v, Prng.float g 0.7)
                    else None)
                  (List.init n Fun.id))
              (List.init n Fun.id)
          in
          Weighted.of_entries n (Array.of_list entries)
      in
      let candidates =
        Array.of_list (List.filter (fun _ -> Prng.bernoulli g 0.7) (Array.to_list (Prng.permutation g n)))
      in
      (* ties in profit exercise the sort; wbar-based profits are what rho uses *)
      let v = Prng.int g n in
      let coarse = Array.init n (fun _ -> float_of_int (Prng.int g 4)) in
      let profit =
        if Prng.bool g then fun u -> Weighted.wbar wg u v else fun u -> coarse.(u)
      in
      let node_limit = [| 3; 40; 1_000_000 |].(Prng.int g 3) in
      let a = Indep.max_profit_weighted ~node_limit wg ~candidates ~profit in
      let b = max_profit_weighted_reference ~node_limit wg ~candidates ~profit in
      a.Indep.set = b.Indep.set
      && Int64.bits_of_float a.Indep.value = Int64.bits_of_float b.Indep.value
      && a.Indep.exact = b.Indep.exact)

(* ---------- bound-pruned ρ vs the full-scan reference --------------------- *)

(* [Inductive] searches only the vertices whose bound can still beat the
   incumbent; [Rho_reference] searches every vertex in ascending id.  The
   two agree on ρ's bits and the witness, and the pruned estimate is exact
   whenever the reference is. *)
let agrees_with_reference (e : Inductive.estimate) (r : Rho_reference.estimate) =
  Int64.bits_of_float e.Inductive.rho = Int64.bits_of_float r.Rho_reference.rho
  && e.Inductive.witness_vertex = r.Rho_reference.witness_vertex
  && ((not r.Rho_reference.exact) || e.Inductive.exact)

let check_against_reference what (e : Inductive.estimate) (r : Rho_reference.estimate) =
  if not (agrees_with_reference e r) then
    Alcotest.failf "%s: pruned (rho %h, witness %d, exact %b) vs reference (rho %h, \
                    witness %d, exact %b)"
      what e.Inductive.rho e.Inductive.witness_vertex e.Inductive.exact
      r.Rho_reference.rho r.Rho_reference.witness_vertex r.Rho_reference.exact

let counter_value name =
  Sa_telemetry.Metrics.counter_value (Sa_telemetry.Metrics.counter name)

let test_rho_no_backward_candidates () =
  let check what (e : Inductive.estimate) =
    Alcotest.(check (float 0.0)) (what ^ ": rho") 0.0 e.Inductive.rho;
    Alcotest.(check int) (what ^ ": witness") (-1) e.Inductive.witness_vertex;
    Alcotest.(check bool) (what ^ ": exact") true e.Inductive.exact
  in
  check "empty graph" (Inductive.rho_unweighted (Graph.create 0) (Ordering.identity 0));
  check "no edges" (Inductive.rho_unweighted (Graph.create 5) (Ordering.identity 5));
  check "zero weights" (Inductive.rho_weighted (Weighted.create 5) (Ordering.identity 5));
  check "empty sparse"
    (Inductive.rho_weighted (Weighted.of_entries 4 [||]) (Ordering.identity 4))

let test_rho_equal_bounds_smallest_witness () =
  (* a perfect matching: vertices 1, 3 and 5 each see one backward
     neighbour, so every bound and every value ties *)
  let g = Graph.of_edges 6 [ (4, 5); (2, 3); (0, 1) ] in
  let pi = Ordering.identity 6 in
  let e = Inductive.rho_unweighted g pi in
  Alcotest.(check int) "unweighted witness" 1 e.Inductive.witness_vertex;
  check_against_reference "unweighted" e (Rho_reference.rho_unweighted g pi);
  let wg = Weighted.of_graph g in
  let e = Inductive.rho_weighted wg pi in
  Alcotest.(check int) "weighted witness" 1 e.Inductive.witness_vertex;
  check_against_reference "weighted" e (Rho_reference.rho_weighted wg pi)

let test_rho_tie_below_a_larger_bound () =
  (* vertex 5 sees the path 0-1-2 (bound 3, value 2) and is searched first;
     vertex 4 sees the independent pair {0, 3} (bound 2, value 2).  The
     bound 2 is not strictly below the incumbent 2, so vertex 4 is searched
     and, tying with a smaller id, becomes the witness an ascending scan
     reports. *)
  let g = Graph.of_edges 6 [ (0, 1); (1, 2); (5, 0); (5, 1); (5, 2); (4, 0); (4, 3) ] in
  let pi = Ordering.identity 6 in
  let e = Inductive.rho_unweighted g pi in
  Alcotest.(check (float 0.0)) "rho" 2.0 e.Inductive.rho;
  Alcotest.(check int) "witness" 4 e.Inductive.witness_vertex;
  check_against_reference "path beside pair" e (Rho_reference.rho_unweighted g pi)

let test_rho_weighted_margin () =
  (* Vertex 5's candidates 0, 1, 2 are independent with profits a < b < c.
     Its bound sums them in id order, (a + b) + c, one ulp below the value
     the search reports, (c + b) + a.  Vertex 6 is searched first (bound
     (c + b) + a + 0.5) and reports exactly that value through candidate
     3, which blocks candidate 4.  Only the margin keeps vertex 5 from
     being bounded away, and so keeps it the witness. *)
  let a = 0x1.885196136b9c1p-2 and b = 0x1.8adddc6114322p-1 and c = 0x1.c0212f5772abp-1 in
  let desc = (c +. b) +. a in
  Alcotest.(check bool) "bound sum falls short" true ((a +. b) +. c < desc);
  let wg = Weighted.create 7 in
  Weighted.set wg 0 5 a;
  Weighted.set wg 1 5 b;
  Weighted.set wg 2 5 c;
  Weighted.set wg 3 4 1.0;
  Weighted.set wg 3 6 desc;
  Weighted.set wg 4 6 0.5;
  let pi = Ordering.identity 7 in
  let e = Inductive.rho_weighted wg pi in
  Alcotest.(check int) "rho bits" 0
    (Int64.compare (Int64.bits_of_float desc) (Int64.bits_of_float e.Inductive.rho));
  Alcotest.(check int) "witness" 5 e.Inductive.witness_vertex;
  check_against_reference "margin" e (Rho_reference.rho_weighted wg pi)

let test_rho_weighted_star () =
  let n = 7 in
  let wg = Weighted.create n in
  for u = 1 to n - 1 do
    Weighted.set wg u 0 0.3
  done;
  (* centre last: the leaves are independent and all flow into 0 *)
  let centre_last = Ordering.of_order (Array.init n (fun i -> (i + 1) mod n)) in
  let e = Inductive.rho_weighted wg centre_last in
  Alcotest.(check (float 1e-12)) "centre-last rho" (0.3 *. float_of_int (n - 1))
    e.Inductive.rho;
  Alcotest.(check int) "centre-last witness" 0 e.Inductive.witness_vertex;
  check_against_reference "centre last" e (Rho_reference.rho_weighted wg centre_last);
  (* centre first: every leaf sees the centre alone, ties go to leaf 1 *)
  let centre_first = Ordering.identity n in
  let e = Inductive.rho_weighted wg centre_first in
  Alcotest.(check (float 0.0)) "centre-first rho" 0.3 e.Inductive.rho;
  Alcotest.(check int) "centre-first witness" 1 e.Inductive.witness_vertex;
  check_against_reference "centre first" e (Rho_reference.rho_weighted wg centre_first)

let test_rho_node_limit_one () =
  (* a one-node budget stops every search at once: each searched vertex
     reports its greedy value, as in the full scan *)
  let g = Prng.create ~seed:23 in
  let graph = Generators.gnp g ~n:14 ~p:0.3 in
  let pi = Ordering.of_order (Prng.permutation g 14) in
  let e = Inductive.rho_unweighted ~node_limit:1 graph pi in
  Alcotest.(check bool) "unweighted inexact" false e.Inductive.exact;
  check_against_reference "unweighted" e (Rho_reference.rho_unweighted ~node_limit:1 graph pi);
  let wg =
    Weighted.of_function 14 (fun u v -> if u <> v && Prng.bernoulli g 0.5 then Prng.float g 0.7 else 0.0)
  in
  let e = Inductive.rho_weighted ~node_limit:1 wg pi in
  Alcotest.(check bool) "weighted inexact" false e.Inductive.exact;
  check_against_reference "weighted" e (Rho_reference.rho_weighted ~node_limit:1 wg pi)

let test_rho_bounded_search_keeps_exact () =
  (* Vertex 4 sees one candidate of profit 2 (three search nodes).  Vertex
     3 sees three independent candidates of total mass 0.9, whose search
     needs more than three nodes.  With a three-node budget the full scan
     runs out on vertex 3 and reports an inexact ρ; the pruned search
     bounds vertex 3 below 2 and never starts it, so the same ρ is exact. *)
  let wg = Weighted.create 5 in
  Weighted.set wg 0 3 0.3;
  Weighted.set wg 1 3 0.3;
  Weighted.set wg 2 3 0.3;
  Weighted.set wg 0 4 2.0;
  let pi = Ordering.identity 5 in
  let searches = counter_value "graph.rho.searches"
  and pruned = counter_value "graph.rho.pruned" in
  let e = Inductive.rho_weighted ~node_limit:3 wg pi in
  let r = Rho_reference.rho_weighted ~node_limit:3 wg pi in
  Alcotest.(check bool) "reference inexact" false r.Rho_reference.exact;
  Alcotest.(check bool) "pruned exact" true e.Inductive.exact;
  Alcotest.(check (float 0.0)) "rho" 2.0 e.Inductive.rho;
  check_against_reference "bounded" e r;
  Alcotest.(check int) "one search" 1 (counter_value "graph.rho.searches" - searches);
  Alcotest.(check int) "one vertex pruned" 1 (counter_value "graph.rho.pruned" - pruned)

let test_rho_weighted_bound_at_incumbent () =
  (* Vertex 4's single candidate has a profit exactly equal to vertex 3's
     bound with its margin, so vertex 3 is not strictly below the
     incumbent: it is searched, runs out of its three-node budget, and
     the estimate is inexact, as in the full scan. *)
  let wg = Weighted.create 5 in
  Weighted.set wg 0 3 0.3;
  Weighted.set wg 1 3 0.3;
  Weighted.set wg 2 3 0.3;
  let total = (0.3 +. 0.3) +. 0.3 in
  Weighted.set wg 0 4 (total *. (1. +. (4. *. 3. *. epsilon_float)));
  let pi = Ordering.identity 5 in
  let searches = counter_value "graph.rho.searches" in
  let e = Inductive.rho_weighted ~node_limit:3 wg pi in
  Alcotest.(check int) "both searched" 2 (counter_value "graph.rho.searches" - searches);
  Alcotest.(check bool) "inexact" false e.Inductive.exact;
  Alcotest.(check int) "witness" 4 e.Inductive.witness_vertex;
  check_against_reference "bound at incumbent" e
    (Rho_reference.rho_weighted ~node_limit:3 wg pi)

(* Brute force over every subset of v's backward candidates. *)
let brute_force_rho ~candidates ~independent ~mass n =
  let best = ref 0.0 in
  for v = 0 to n - 1 do
    let cands = Array.of_list (candidates v) in
    let m = Array.length cands in
    for mask = 1 to (1 lsl m) - 1 do
      let set = List.filter_map (fun i -> if mask land (1 lsl i) <> 0 then Some cands.(i) else None)
          (List.init m Fun.id) in
      if independent set then best := Float.max !best (mass v set)
    done
  done;
  !best

let random_weighted g n =
  let density = [| 0.15; 0.5; 0.9 |].(Prng.int g 3) in
  (* coarse weights make equal bounds and equal values common *)
  let draw () = if Prng.bool g then Prng.float g 0.7 else [| 0.25; 0.5 |].(Prng.int g 2) in
  if Prng.bool g then
    Weighted.of_function n (fun u v -> if u <> v && Prng.bernoulli g density then draw () else 0.0)
  else
    let entries =
      List.concat_map
        (fun u ->
          List.filter_map
            (fun v -> if u <> v && Prng.bernoulli g density then Some (u, v, draw ()) else None)
            (List.init n Fun.id))
        (List.init n Fun.id)
    in
    Weighted.of_entries n (Array.of_list entries)

let node_limits = [| 1; 2; 3; 10; 100; 5_000 |]

let prop_rho_weighted_matches_reference =
  QCheck.Test.make ~count:150 ~name:"pruned weighted rho = full-scan reference (bitwise)"
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let g = Prng.create ~seed in
      let n = 1 + Prng.int g 30 in
      let wg = random_weighted g n in
      let pi = Ordering.of_order (Prng.permutation g n) in
      let node_limit = node_limits.(Prng.int g (Array.length node_limits)) in
      let e = Inductive.rho_weighted ~node_limit wg pi in
      let r = Rho_reference.rho_weighted ~node_limit wg pi in
      agrees_with_reference e r
      && ((not e.Inductive.exact) || n > 12
         ||
         let candidates v =
           List.filter
             (fun u -> Ordering.precedes pi u v && Weighted.wbar wg u v > 0.0)
             (List.init n Fun.id)
         in
         let mass v set = List.fold_left (fun acc u -> acc +. Weighted.wbar wg u v) 0.0 set in
         let brute = brute_force_rho ~candidates ~independent:(Weighted.is_independent wg) ~mass n in
         Float.abs (brute -. e.Inductive.rho) <= 1e-9 *. Float.max 1.0 brute))

let prop_rho_unweighted_matches_reference =
  QCheck.Test.make ~count:150 ~name:"pruned unweighted rho = full-scan reference"
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let g = Prng.create ~seed in
      let n = 1 + Prng.int g 30 in
      let graph = Generators.gnp g ~n ~p:[| 0.1; 0.3; 0.6 |].(Prng.int g 3) in
      let pi = Ordering.of_order (Prng.permutation g n) in
      let node_limit = node_limits.(Prng.int g (Array.length node_limits)) in
      let e = Inductive.rho_unweighted ~node_limit graph pi in
      let r = Rho_reference.rho_unweighted ~node_limit graph pi in
      agrees_with_reference e r
      && ((not e.Inductive.exact) || n > 12
         ||
         let candidates v = Ordering.backward_neighbors pi graph v in
         let mass _ set = float_of_int (List.length set) in
         brute_force_rho ~candidates ~independent:(Graph.is_independent graph) ~mass n
         = e.Inductive.rho))

(* ---------- Generators ----------------------------------------------------- *)

let test_gnp_extremes () =
  let g = Prng.create ~seed:11 in
  Alcotest.(check int) "p=0 empty" 0 (Graph.num_edges (Generators.gnp g ~n:10 ~p:0.0));
  Alcotest.(check int) "p=1 complete" 45 (Graph.num_edges (Generators.gnp g ~n:10 ~p:1.0))

let test_bounded_degree () =
  let g = Prng.create ~seed:13 in
  let graph = Generators.random_bounded_degree g ~n:30 ~d:4 in
  Alcotest.(check bool) "degree cap respected" true (Graph.max_degree graph <= 4)

let test_split_asymmetric_union () =
  let g = Prng.create ~seed:17 in
  let graph = Generators.gnp g ~n:15 ~p:0.3 in
  let pi = Ordering.identity 15 in
  let parts = Generators.split_for_asymmetric_channels graph pi ~k:3 in
  Alcotest.(check int) "3 parts" 3 (Array.length parts);
  (* union of parts = original *)
  let total = Array.fold_left (fun acc p -> acc + Graph.num_edges p) 0 parts in
  Alcotest.(check int) "edges partitioned" (Graph.num_edges graph) total;
  Graph.iter_edges graph (fun u v ->
      if not (Array.exists (fun p -> Graph.mem_edge p u v) parts) then
        Alcotest.failf "edge (%d,%d) lost" u v)

let test_split_backward_degree () =
  let g = Prng.create ~seed:19 in
  let graph = Generators.random_bounded_degree g ~n:20 ~d:6 in
  let pi, _ = Inductive.degeneracy_ordering graph in
  let k = 3 in
  let parts = Generators.split_for_asymmetric_channels graph pi ~k in
  (* every part has backward degree <= ceil(d_back/k) *)
  for v = 0 to 19 do
    let total_back = List.length (Ordering.backward_neighbors pi graph v) in
    let cap = (total_back + k - 1) / k in
    Array.iter
      (fun p ->
        let b = List.length (Ordering.backward_neighbors pi p v) in
        if b > cap then Alcotest.failf "backward degree %d > cap %d" b cap)
      parts
  done

(* ---------- property tests -------------------------------------------------- *)

let prop_mis_maximal =
  QCheck.Test.make ~name:"exact MIS beats greedy" ~count:50
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let g = Prng.create ~seed in
      let graph = Generators.gnp g ~n:14 ~p:0.3 in
      let weights = Array.init 14 (fun _ -> 0.1 +. Prng.float g 5.0) in
      let exact = Indep.max_weight_independent_set graph ~weights in
      let _, greedy = Indep.greedy_weight graph ~weights in
      exact.Indep.exact
      && exact.Indep.value >= greedy -. 1e-9
      && Graph.is_independent graph exact.Indep.set)

let prop_rho_witnesses_definition =
  QCheck.Test.make ~name:"rho(pi) bounds all independent sets (Def 1)" ~count:30
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let g = Prng.create ~seed in
      let graph = Generators.gnp g ~n:12 ~p:0.25 in
      let pi = Ordering.of_order (Prng.permutation g 12) in
      let e = Inductive.rho_unweighted graph pi in
      let m = (Indep.max_independent_set graph).Indep.set in
      Inductive.check_unweighted_bound graph pi
        ~rho:(int_of_float e.Inductive.rho) m)

(* ---------- packed bitset graph vs naive dense reference ----------------- *)

(* The packed representation (bitset rows + frozen CSR) must be
   observationally identical to a naive adjacency matrix on every query the
   rest of the system uses. *)
let prop_packed_matches_dense =
  QCheck.Test.make ~name:"packed bitset graph = dense reference" ~count:150
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let g_rng = Prng.create ~seed in
      let n = 1 + Prng.int g_rng 70 in
      let dense = Array.make_matrix n n false in
      let g = Graph.create n in
      let m = Prng.int g_rng (1 + (n * (n - 1) / 3)) in
      for _ = 1 to m do
        let u = Prng.int g_rng n and v = Prng.int g_rng n in
        if u <> v then begin
          dense.(u).(v) <- true;
          dense.(v).(u) <- true;
          Graph.add_edge g u v
        end
      done;
      let ref_neighbors v =
        List.filter (fun u -> dense.(v).(u)) (List.init n Fun.id)
      in
      let ref_edges = ref 0 in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if dense.(u).(v) then incr ref_edges
        done
      done;
      let subset =
        List.filter (fun _ -> Prng.bernoulli g_rng 0.3) (List.init n Fun.id)
      in
      let ref_independent set =
        List.for_all
          (fun u -> List.for_all (fun v -> u = v || not dense.(u).(v)) set)
          set
      in
      let mask = Graph.mask_of_list g subset in
      Graph.num_edges g = !ref_edges
      && List.for_all
           (fun v ->
             Graph.neighbors g v = ref_neighbors v
             && Graph.degree g v = List.length (ref_neighbors v)
             && List.for_all (fun u -> Graph.mem_edge g u v = dense.(u).(v))
                  (List.init n Fun.id)
             && Graph.row_inter_card g v mask
                = List.length (List.filter (fun u -> dense.(v).(u)) subset)
             && Graph.row_intersects g v mask
                = List.exists (fun u -> dense.(v).(u)) subset
             && Graph.exists_row_inter g v mask (fun u -> u mod 2 = 0)
                = List.exists (fun u -> dense.(v).(u) && u mod 2 = 0) subset)
           (List.init n Fun.id)
      && Graph.is_independent g subset = ref_independent subset)

let suite =
  [
    Alcotest.test_case "graph basics" `Quick test_graph_basic;
    Alcotest.test_case "duplicate edges merged" `Quick test_graph_duplicate_edges;
    Alcotest.test_case "self-loops rejected" `Quick test_graph_self_loop_rejected;
    Alcotest.test_case "clique/complement" `Quick test_graph_clique_complement;
    Alcotest.test_case "induced subgraph" `Quick test_graph_induced;
    Alcotest.test_case "independence check" `Quick test_graph_independence;
    Alcotest.test_case "weighted basics" `Quick test_weighted_basic;
    Alcotest.test_case "weighted independence" `Quick test_weighted_independence;
    Alcotest.test_case "weighted of_graph embedding" `Quick test_weighted_of_graph;
    Alcotest.test_case "weighted mask check" `Quick test_weighted_mask_check;
    Alcotest.test_case "ordering basics" `Quick test_ordering_basic;
    Alcotest.test_case "ordering by key" `Quick test_ordering_by_key;
    Alcotest.test_case "ordering reverse" `Quick test_ordering_reverse;
    Alcotest.test_case "backward neighbors" `Quick test_ordering_backward_neighbors;
    Alcotest.test_case "bad permutation rejected" `Quick test_ordering_not_permutation;
    Alcotest.test_case "MIS on a path" `Quick test_mis_path;
    Alcotest.test_case "MWIS picks heavy middle" `Quick test_mwis_weights;
    Alcotest.test_case "MIS of clique" `Quick test_mis_clique;
    Alcotest.test_case "greedy MWIS feasible" `Quick test_greedy_weight_feasible;
    Alcotest.test_case "weighted profit B&B" `Quick test_max_profit_weighted;
    Alcotest.test_case "weighted profit blocked pair" `Quick test_max_profit_weighted_blocked;
    Alcotest.test_case "rho of clique" `Quick test_rho_clique;
    Alcotest.test_case "rho of star (both orderings)" `Quick test_rho_star;
    Alcotest.test_case "degeneracy bounds rho" `Quick test_degeneracy_ordering_bound;
    Alcotest.test_case "weighted rho" `Quick test_rho_weighted_simple;
    Alcotest.test_case "Definition 1 checker" `Quick test_check_bounds;
    Alcotest.test_case "greedy weighted ordering (star)" `Quick test_greedy_weighted_ordering;
    QCheck_alcotest.to_alcotest prop_greedy_ordering_not_worse_than_random;
    Alcotest.test_case "gnp extremes" `Quick test_gnp_extremes;
    Alcotest.test_case "bounded-degree generator" `Quick test_bounded_degree;
    Alcotest.test_case "Theorem 14 split: union preserved" `Quick test_split_asymmetric_union;
    Alcotest.test_case "Theorem 14 split: backward degree" `Quick test_split_backward_degree;
    QCheck_alcotest.to_alcotest prop_mis_maximal;
    QCheck_alcotest.to_alcotest prop_rho_witnesses_definition;
    QCheck_alcotest.to_alcotest prop_packed_matches_dense;
    Alcotest.test_case "sparse: empty rows" `Quick test_sparse_empty_rows;
    Alcotest.test_case "sparse: w_min floor boundary" `Quick test_sparse_floor_boundary;
    Alcotest.test_case "sparse: all entries dropped" `Quick test_sparse_all_dropped;
    Alcotest.test_case "sparse: dropped_in seeding" `Quick test_sparse_dropped_in_seed;
    QCheck_alcotest.to_alcotest prop_sparse_mass_conserved;
    QCheck_alcotest.to_alcotest prop_max_profit_weighted_matches_reference;
    Alcotest.test_case "pruned rho: no backward candidates" `Quick
      test_rho_no_backward_candidates;
    Alcotest.test_case "pruned rho: equal bounds, smallest witness" `Quick
      test_rho_equal_bounds_smallest_witness;
    Alcotest.test_case "pruned rho: tie below a larger bound" `Quick
      test_rho_tie_below_a_larger_bound;
    Alcotest.test_case "pruned rho: float-safe margin" `Quick test_rho_weighted_margin;
    Alcotest.test_case "pruned rho: weighted star (both orderings)" `Quick
      test_rho_weighted_star;
    Alcotest.test_case "pruned rho: bound equal to the incumbent is searched" `Quick
      test_rho_weighted_bound_at_incumbent;
    Alcotest.test_case "pruned rho: node_limit 1" `Quick test_rho_node_limit_one;
    Alcotest.test_case "pruned rho: bounded search stays exact" `Quick
      test_rho_bounded_search_keeps_exact;
    QCheck_alcotest.to_alcotest prop_rho_weighted_matches_reference;
    QCheck_alcotest.to_alcotest prop_rho_unweighted_matches_reference;
  ]
