(* Reference for the ρ(π) estimation: [Inductive.rho_unweighted] and
   [Inductive.rho_weighted] as they were before the bound-pruned search,
   kept verbatim apart from the module aliases below.  Every vertex with a
   non-empty backward candidate set runs its branch and bound, in
   ascending id, and [exact] is false as soon as one search exhausts its
   node budget.  The production estimator must return the same [rho] bits
   and the same [witness_vertex], and may only turn [exact] from false to
   true; [test/suite_graph.ml] checks that.  One departure from the old
   text: the reference opens no [graph.rho] span and bumps no
   [graph.rho.*] counter, so a test can watch the production estimator
   alone. *)

module Graph = Sa_graph.Graph
module Weighted = Sa_graph.Weighted
module Ordering = Sa_graph.Ordering
module Indep = Sa_graph.Indep

type estimate = Sa_graph.Inductive.estimate = {
  rho : float;
  exact : bool;
  witness_vertex : int;
}

let rho_unweighted ?node_limit g pi =
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
