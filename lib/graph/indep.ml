type 'a result = { set : int list; value : 'a; exact : bool }

exception Budget_exhausted

let default_node_limit = 2_000_000

let greedy_weight g ~weights =
  let size = Graph.n g in
  let order = Array.init size (fun i -> i) in
  Array.sort (fun a b -> compare weights.(b) weights.(a)) order;
  let chosen = ref [] in
  let chosen_mask = Graph.mask_create g in
  Array.iter
    (fun v ->
      if weights.(v) > 0.0 && not (Graph.row_intersects g v chosen_mask) then begin
        Bitset.add chosen_mask v;
        chosen := v :: !chosen
      end)
    order;
  let total = List.fold_left (fun acc v -> acc +. weights.(v)) 0.0 !chosen in
  (!chosen, total)

(* Branch and bound for maximum-weight independent set: vertices are
   processed in decreasing weight order; the bound is the weight collected so
   far plus the total weight still processable. *)
let max_weight_independent_set ?(node_limit = default_node_limit) g ~weights =
  let size = Graph.n g in
  if Array.length weights <> size then
    invalid_arg "Indep.max_weight_independent_set: weights length mismatch";
  Array.iter
    (fun w -> if w < 0.0 then invalid_arg "Indep.max_weight_independent_set: negative weight")
    weights;
  let order = Array.init size (fun i -> i) in
  Array.sort (fun a b -> compare weights.(b) weights.(a)) order;
  let candidates = Array.to_list order in
  let best_set = ref [] and best_w = ref 0.0 in
  let nodes = ref 0 in
  let rec go current cur_w remaining rem_total =
    incr nodes;
    if !nodes > node_limit then raise Budget_exhausted;
    if cur_w > !best_w then begin
      best_w := cur_w;
      best_set := current
    end;
    match remaining with
    | [] -> ()
    | v :: rest ->
        if cur_w +. rem_total > !best_w then begin
          (* include v *)
          let rest_in = List.filter (fun u -> not (Graph.mem_edge g u v)) rest in
          let rem_in = List.fold_left (fun acc u -> acc +. weights.(u)) 0.0 rest_in in
          go (v :: current) (cur_w +. weights.(v)) rest_in rem_in;
          (* exclude v *)
          go current cur_w rest (rem_total -. weights.(v))
        end
  in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let exact =
    try
      go [] 0.0 candidates total;
      true
    with Budget_exhausted -> false
  in
  if exact then { set = !best_set; value = !best_w; exact = true }
  else
    let gset, gw = greedy_weight g ~weights in
    if gw > !best_w then { set = gset; value = gw; exact = false }
    else { set = !best_set; value = !best_w; exact = false }

let max_independent_set ?node_limit g =
  let weights = Array.make (Graph.n g) 1.0 in
  let r = max_weight_independent_set ?node_limit g ~weights in
  { set = r.set; value = List.length r.set; exact = r.exact }

(* Weighted-graph (Definition 2) inner problem.  Independence is downward
   closed and adding a vertex only increases incoming sums, so an include
   branch can be pruned as soon as it is infeasible. *)

let feasible_with wg chosen incoming u =
  (* [incoming.(v)] holds the interference into chosen vertex [v] from the
     other chosen vertices; check that adding [u] keeps everyone below 1. *)
  let into_u = List.fold_left (fun acc v -> acc +. Weighted.w wg v u) 0.0 chosen in
  into_u < 1.0
  && List.for_all (fun v -> incoming.(v) +. Weighted.w wg u v < 1.0) chosen

let greedy_profit_weighted wg ~candidates ~profit =
  let cands = Array.copy candidates in
  Array.sort (fun a b -> compare (profit b) (profit a)) cands;
  let incoming = Array.make (Weighted.n wg) 0.0 in
  let chosen = ref [] in
  Array.iter
    (fun u ->
      if profit u > 0.0 && feasible_with wg !chosen incoming u then begin
        List.iter (fun v -> incoming.(v) <- incoming.(v) +. Weighted.w wg u v) !chosen;
        incoming.(u) <-
          List.fold_left (fun acc v -> acc +. Weighted.w wg v u) 0.0 !chosen;
        chosen := u :: !chosen
      end)
    cands;
  let total = List.fold_left (fun acc u -> acc +. profit u) 0.0 !chosen in
  (!chosen, total)

(* Per-domain grow-only buffer for the m×m weight table of
   [max_profit_weighted]: [Inductive.rho_weighted] calls it once per
   searched vertex, and a fresh table per call would outlive many minor
   collections and be promoted, only to become major-heap garbage.  The
   table is filled after the last call to [profit] and read only by the
   search, which calls no outside code, so a reentrant call cannot
   clobber it. *)
let weight_table = Domain.DLS.new_key (fun () -> ref [||])

let max_profit_weighted ?(node_limit = default_node_limit) wg ~candidates ~profit =
  Array.iter
    (fun u -> if profit u < 0.0 then invalid_arg "Indep.max_profit_weighted: negative profit")
    candidates;
  let cands = Array.copy candidates in
  Array.sort (fun a b -> compare (profit b) (profit a)) cands;
  (* The search runs over positions in [cands].  Profits and the weights
     between candidates are looked up once here: the search revisits each
     pair at many nodes, and every [Weighted.w] is a bounds-checked call.
     Each sum below keeps its terms and their order, so the result is
     bitwise what per-node lookups give. *)
  let m = Array.length cands in
  let prof = Array.map profit cands in
  let table = Domain.DLS.get weight_table in
  if Array.length !table < m * m then table := Array.make (m * m) 0.0;
  let w = !table in
  for i = 0 to m - 1 do
    for j = 0 to m - 1 do
      w.((i * m) + j) <- Weighted.w wg cands.(i) cands.(j)
    done
  done;
  let incoming = Array.make m 0.0 in
  let feasible chosen i =
    let into_i = List.fold_left (fun acc j -> acc +. w.((j * m) + i)) 0.0 chosen in
    into_i < 1.0 && List.for_all (fun j -> incoming.(j) +. w.((i * m) + j) < 1.0) chosen
  in
  let best_set = ref [] and best_p = ref 0.0 in
  let nodes = ref 0 in
  let rec go chosen cur_p i rem_total =
    incr nodes;
    if !nodes > node_limit then raise Budget_exhausted;
    if cur_p > !best_p then begin
      best_p := cur_p;
      best_set := chosen
    end;
    if i < m && cur_p +. rem_total > !best_p then begin
      if feasible chosen i then begin
        List.iter (fun j -> incoming.(j) <- incoming.(j) +. w.((i * m) + j)) chosen;
        incoming.(i) <- List.fold_left (fun acc j -> acc +. w.((j * m) + i)) 0.0 chosen;
        go (i :: chosen) (cur_p +. prof.(i)) (i + 1) (rem_total -. prof.(i));
        List.iter (fun j -> incoming.(j) <- incoming.(j) -. w.((i * m) + j)) chosen;
        incoming.(i) <- 0.0
      end;
      go chosen cur_p (i + 1) (rem_total -. prof.(i))
    end
  in
  let total = Array.fold_left ( +. ) 0.0 prof in
  let exact =
    try
      go [] 0.0 0 total;
      true
    with Budget_exhausted -> false
  in
  let set = List.map (fun i -> cands.(i)) !best_set in
  if exact then { set; value = !best_p; exact = true }
  else
    let gset, gp = greedy_profit_weighted wg ~candidates ~profit in
    if gp > !best_p then { set = gset; value = gp; exact = false }
    else { set; value = !best_p; exact = false }
