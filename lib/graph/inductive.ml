type estimate = { rho : float; exact : bool; witness_vertex : int }

module Tel = Sa_telemetry.Metrics

let m_estimates = Tel.counter "graph.rho.estimates"
let m_searches = Tel.counter "graph.rho.searches"
let m_pruned = Tel.counter "graph.rho.pruned"
let h_rho = Tel.histogram "graph.rho.seconds"

(* The search shared by both definitions.  [bound.(v)] is an upper bound on
   vertex [v]'s inner maximum, [0.] exactly when [v] has no backward
   candidate and so needs no search.  Vertices are visited by decreasing bound, ties
   by ascending id, and the visit stops at the first vertex that [skip]
   places strictly below the incumbent: every later vertex has a bound no
   larger and the incumbent only grows, so none of them can reach the
   maximum, let alone tie it.  A searched vertex takes over the witness on
   a larger value, or on an equal one with a smaller id, so the witness is
   the smallest id attaining the maximum, as an ascending scan that keeps
   the first strict improvement reports it. *)
let search_by_bound bound ~skip ~inner =
  let order = ref [] in
  for v = Array.length bound - 1 downto 0 do
    if bound.(v) > 0.0 then order := v :: !order
  done;
  let order = Array.of_list !order in
  Array.stable_sort (fun a b -> Float.compare bound.(b) bound.(a)) order;
  let best = ref 0.0 and witness = ref (-1) and all_exact = ref true in
  let searched = ref 0 in
  while !searched < Array.length order && not (skip order.(!searched) !best) do
    let v = order.(!searched) in
    incr searched;
    let value, exact = inner v in
    if not exact then all_exact := false;
    if value > !best || (value = !best && v < !witness) then begin
      best := value;
      witness := v
    end
  done;
  Tel.add m_searches !searched;
  Tel.add m_pruned (Array.length order - !searched);
  { rho = !best; exact = !all_exact; witness_vertex = !witness }

let rho_unweighted ?node_limit g pi =
  Sa_telemetry.Trace.with_span ~hist:h_rho "graph.rho" @@ fun () ->
  Tel.incr m_estimates;
  (* the maximum independent set of Γπ(v) has at most |Γπ(v)| members *)
  let bound = Array.make (Graph.n g) 0.0 in
  for v = 0 to Graph.n g - 1 do
    let rv = Ordering.rank pi v in
    Graph.iter_neighbors g v (fun u ->
        if Ordering.rank pi u < rv then bound.(v) <- bound.(v) +. 1.0)
  done;
  search_by_bound bound
    ~skip:(fun v best -> bound.(v) < best)
    ~inner:(fun v ->
      let backward = Array.of_list (Ordering.backward_neighbors pi g v) in
      let r = Indep.max_independent_set ?node_limit (Graph.induced g backward) in
      (float_of_int r.Indep.value, r.Indep.exact))

let rho_weighted ?node_limit wg pi =
  Sa_telemetry.Trace.with_span ~hist:h_rho "graph.rho" @@ fun () ->
  Tel.incr m_estimates;
  (* [total.(v)] is v's candidate mass and [count.(v)] the number of its
     candidates: the u with π(u) < π(v) and w̄(u,v) > 0. *)
  let size = Weighted.n wg in
  let total = Array.make size 0.0 and count = Array.make size 0 in
  for v = 0 to size - 1 do
    let rv = Ordering.rank pi v in
    Weighted.iter_wbar wg v (fun u x ->
        if Ordering.rank pi u < rv then begin
          total.(v) <- total.(v) +. x;
          count.(v) <- count.(v) + 1
        end)
  done;
  (* Any independent subset's mass, as the search sums it, exceeds the
     exact candidate mass by at most m·ε/2 relative and [total] falls short
     of it by as much, so [total·(1 + 4mε)] still bounds what the search
     can report. *)
  let skip v best =
    total.(v) *. (1. +. (4. *. float_of_int count.(v) *. epsilon_float)) < best
  in
  search_by_bound total ~skip ~inner:(fun v ->
      let rv = Ordering.rank pi v in
      let candidates = Array.make count.(v) 0 and filled = ref 0 in
      Weighted.iter_wbar wg v (fun u _ ->
          if Ordering.rank pi u < rv then begin
            candidates.(!filled) <- u;
            incr filled
          end);
      (* ascending π, the order the search's tie-breaking sort sees *)
      Array.sort (fun a b -> compare (Ordering.rank pi a) (Ordering.rank pi b)) candidates;
      let profit u = Weighted.wbar wg u v in
      let r = Indep.max_profit_weighted ?node_limit wg ~candidates ~profit in
      (r.Indep.value, r.Indep.exact))

let degeneracy_ordering g =
  let size = Graph.n g in
  let removed = Array.make size false in
  let deg = Array.init size (fun v -> Graph.degree g v) in
  let order_rev = ref [] in
  let degeneracy = ref 0 in
  for _step = 1 to size do
    let v = ref (-1) in
    for u = 0 to size - 1 do
      if (not removed.(u)) && (!v < 0 || deg.(u) < deg.(!v)) then v := u
    done;
    let v = !v in
    degeneracy := max !degeneracy deg.(v);
    removed.(v) <- true;
    order_rev := v :: !order_rev;
    Graph.iter_neighbors g v (fun u -> if not removed.(u) then deg.(u) <- deg.(u) - 1)
  done;
  (* Vertices removed first have the fewest surviving neighbours; placing
     them *last* ensures each vertex sees at most [degeneracy] backward
     neighbours. *)
  (Ordering.of_order (Array.of_list !order_rev), !degeneracy)

let check_unweighted_bound g pi ~rho m =
  if not (Graph.is_independent g m) then
    invalid_arg "Inductive.check_unweighted_bound: set is not independent";
  let ok = ref true in
  for v = 0 to Graph.n g - 1 do
    let count =
      List.length
        (List.filter (fun u -> Graph.mem_edge g u v && Ordering.precedes pi u v) m)
    in
    if count > rho then ok := false
  done;
  !ok

let check_weighted_bound wg pi ~rho m =
  if not (Weighted.is_independent wg m) then
    invalid_arg "Inductive.check_weighted_bound: set is not independent";
  let ok = ref true in
  for v = 0 to Weighted.n wg - 1 do
    let mass =
      List.fold_left
        (fun acc u ->
          if u <> v && Ordering.precedes pi u v then acc +. Weighted.wbar wg u v
          else acc)
        0.0 m
    in
    if not (Sa_util.Floats.leq mass rho) then ok := false
  done;
  !ok
