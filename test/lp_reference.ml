(* Test-only references for the O(nnz) production LP staging code.

   These are the straightforward forms the production code must reproduce
   bit for bit: the explicit LP whose interference row (v, j) is gathered
   by scanning every column, the feasibility check that sums each row's
   mass over every column, and the colgen raw price summed over every
   vertex.  Each costs O(n·k·C) or O(n) per entry; the differential suite
   (suite_staging.ml) compares them with {!Sa_core.Lp_relaxation} and
   {!Sa_core.Oracle_solver}. *)

module Bundle = Sa_val.Bundle
module Valuation = Sa_val.Valuation
module Ordering = Sa_graph.Ordering
module Model = Sa_lp.Model
module Simplex = Sa_lp.Simplex
module Floats = Sa_util.Floats
module Instance = Sa_core.Instance
module Lp = Sa_core.Lp_relaxation

(* Same variable and row layout as [Lp.stage]; row (v, j) scans all
   columns for those of a preceding u containing j with w̄_j(u,v) > 0. *)
let stage ?(zeroed = []) inst =
  let n = Instance.n inst and k = inst.Instance.k in
  let pi = inst.Instance.ordering in
  let m = Model.create Simplex.Maximize in
  let cols = ref [] in
  for v = 0 to n - 1 do
    let support =
      Valuation.support inst.Instance.bidders.(v) ~k
      |> List.filter (fun (bundle, _) ->
             Bundle.equal bundle (Instance.restrict_bundle inst ~bidder:v bundle))
    in
    let zero = List.mem v zeroed in
    List.iter
      (fun (bundle, value) ->
        let obj = if zero then 0.0 else value in
        let var = Model.add_var m ~obj in
        cols := (v, bundle, var) :: !cols)
      support
  done;
  let cols = Array.of_list (List.rev !cols) in
  let per_bidder_vars = Array.make n [] in
  Array.iter
    (fun (v, _, var) -> per_bidder_vars.(v) <- (var, 1.0) :: per_bidder_vars.(v))
    cols;
  for v = 0 to n - 1 do
    if per_bidder_vars.(v) <> [] then
      ignore (Model.add_row m per_bidder_vars.(v) Simplex.Le 1.0)
  done;
  for v = 0 to n - 1 do
    for channel = 0 to k - 1 do
      let coeffs = ref [] in
      Array.iter
        (fun (u, bundle, var) ->
          if u <> v && Ordering.precedes pi u v && Bundle.mem channel bundle then begin
            let w = Instance.wbar inst ~channel u v in
            if w > 0.0 then coeffs := (var, w) :: !coeffs
          end)
        cols;
      if !coeffs <> [] then
        ignore (Model.add_row m !coeffs Simplex.Le inst.Instance.rho)
    done
  done;
  (m, Array.map (fun (v, bundle, _) -> (v, bundle)) cols)

(* Σ_{u: π(u)<π(v)} Σ_{T∋j} w̄_j(u,v)·x_{u,T}, summed in column order. *)
let interference_mass inst columns ~v ~channel =
  let pi = inst.Instance.ordering in
  Array.fold_left
    (fun acc { Lp.bidder = u; bundle; x } ->
      if u <> v && Ordering.precedes pi u v && Bundle.mem channel bundle then
        acc +. (Instance.wbar inst ~channel u v *. x)
      else acc)
    0.0 columns

let is_lp_feasible ?(eps = Floats.default_eps) inst frac =
  let n = Instance.n inst and k = inst.Instance.k in
  let columns = frac.Lp.columns in
  let nonneg = Array.for_all (fun c -> c.Lp.x >= -.eps) columns in
  let mass = Array.make n 0.0 in
  Array.iter (fun c -> mass.(c.Lp.bidder) <- mass.(c.Lp.bidder) +. c.Lp.x) columns;
  let unit_ok = Array.for_all (fun m -> Floats.leq ~eps m 1.0) mass in
  let interference_ok = ref true in
  for v = 0 to n - 1 do
    for channel = 0 to k - 1 do
      let m = interference_mass inst columns ~v ~channel in
      if not (Floats.leq ~eps m inst.Instance.rho) then interference_ok := false
    done
  done;
  nonneg && unit_ok && !interference_ok

(* p_raw(v,j) = Σ_{u: π(u)>π(v)} w̄_j(u,v)·y(u,j) over every vertex u,
   ascending. *)
let raw_price inst ~y ~bidder ~channel =
  let pi = inst.Instance.ordering in
  let acc = ref 0.0 in
  for u = 0 to Instance.n inst - 1 do
    if u <> bidder && Ordering.precedes pi bidder u then begin
      let w = Instance.wbar inst ~channel u bidder in
      if w > 0.0 then acc := !acc +. (w *. y u channel)
    end
  done;
  !acc
