type estimate = { rho : float; exact : bool; witness_vertex : int }

module Tel = Sa_telemetry.Metrics

let m_estimates = Tel.counter "graph.rho.estimates"
let h_rho = Tel.histogram "graph.rho.seconds"

let rho_unweighted ?node_limit g pi =
  Sa_telemetry.Trace.with_span ~hist:h_rho "graph.rho" @@ fun () ->
  Tel.incr m_estimates;
  let best = ref 0.0 and witness = ref (-1) and all_exact = ref true in
  for v = 0 to Graph.n g - 1 do
    let backward = Array.of_list (Ordering.backward_neighbors pi g v) in
    if Array.length backward > 0 then begin
      let sub = Graph.induced g backward in
      let r = Indep.max_independent_set ?node_limit sub in
      if not r.Indep.exact then all_exact := false;
      let size = float_of_int r.Indep.value in
      if size > !best then begin
        best := size;
        witness := v
      end
    end
  done;
  { rho = !best; exact = !all_exact; witness_vertex = !witness }

let rho_weighted ?node_limit wg pi =
  Sa_telemetry.Trace.with_span ~hist:h_rho "graph.rho" @@ fun () ->
  Tel.incr m_estimates;
  let best = ref 0.0 and witness = ref (-1) and all_exact = ref true in
  for v = 0 to Weighted.n wg - 1 do
    let candidates =
      Ordering.before pi v
      |> List.filter (fun u -> Weighted.wbar wg u v > 0.0)
      |> Array.of_list
    in
    if Array.length candidates > 0 then begin
      let profit u = Weighted.wbar wg u v in
      let r = Indep.max_profit_weighted ?node_limit wg ~candidates ~profit in
      if not r.Indep.exact then all_exact := false;
      if r.Indep.value > !best then begin
        best := r.Indep.value;
        witness := v
      end
    end
  done;
  { rho = !best; exact = !all_exact; witness_vertex = !witness }

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
