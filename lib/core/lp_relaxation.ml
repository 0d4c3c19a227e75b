module Bundle = Sa_val.Bundle
module Valuation = Sa_val.Valuation
module Model = Sa_lp.Model
module Simplex = Sa_lp.Simplex
module Floats = Sa_util.Floats

type column = { bidder : int; bundle : Bundle.t; x : float }

type fractional = { columns : column array; objective : float }

let by_bidder frac ~n =
  let per = Array.make n [] in
  Array.iter
    (fun { bidder; bundle; x } -> per.(bidder) <- (bundle, x) :: per.(bidder))
    frac.columns;
  per

let column_value inst { bidder; bundle; x } =
  Valuation.value inst.Instance.bidders.(bidder) bundle *. x

let of_allocation inst alloc =
  let columns =
    Array.to_list alloc
    |> List.mapi (fun v bundle -> { bidder = v; bundle; x = 1.0 })
    |> List.filter (fun c -> not (Bundle.is_empty c.bundle))
    |> Array.of_list
  in
  let objective =
    Array.fold_left (fun acc c -> acc +. column_value inst c) 0.0 columns
  in
  { columns; objective }

(* Push every column's mass forward along its neighbourhood: table entry
   (v, j) receives Σ_{u: π(u)<π(v)} Σ_{T∋j} w̄_j(u,v)·x_{u,T}, one addition
   per (column, forward neighbour, channel) — O(nnz) instead of a scan of
   all columns per (vertex, channel).  Each entry still adds its terms in
   column order, and the skipped non-neighbours would only add w̄ = 0 terms,
   so for finite x every sum is bitwise the all-column one. *)
let interference_masses inst columns =
  let n = Instance.n inst and k = inst.Instance.k in
  let mass = Array.make (n * k) 0.0 in
  Array.iter
    (fun { bidder = u; bundle; x } ->
      let channels = Bundle.inter bundle (Bundle.full k) in
      Instance.iter_forward inst u (fun v ->
          Bundle.iter
            (fun channel ->
              let i = (v * k) + channel in
              mass.(i) <- mass.(i) +. (Instance.wbar inst ~channel u v *. x))
            channels))
    columns;
  mass

let is_lp_feasible ?(eps = Floats.default_eps) inst frac =
  let n = Instance.n inst in
  let nonneg = Array.for_all (fun c -> c.x >= -.eps) frac.columns in
  let mass = Array.make n 0.0 in
  Array.iter (fun c -> mass.(c.bidder) <- mass.(c.bidder) +. c.x) frac.columns;
  let unit_ok = Array.for_all (fun m -> Floats.leq ~eps m 1.0) mass in
  let interference_ok =
    Array.for_all
      (fun m -> Floats.leq ~eps m inst.Instance.rho)
      (interference_masses inst frac.columns)
  in
  nonneg && unit_ok && interference_ok

let fractional_value_of_bidder inst frac v =
  Array.fold_left
    (fun acc c -> if c.bidder = v then acc +. column_value inst c else acc)
    0.0 frac.columns

type solve_stats = {
  basis : Sa_lp.Revised.basis option;
  iterations : int;
  warm_start_used : bool;
}

(* Variables are numbered bidder-major in support order; rows are the
   unit-mass rows of bidders with columns, then the non-empty interference
   rows (v, j) in (v, j) order.  Row (v, j) gathers the columns of v's
   backward neighbours only, so staging costs O(n·k + nnz). *)
let stage ?(zeroed = []) inst =
  let n = Instance.n inst and k = inst.Instance.k in
  let m = Model.create Simplex.Maximize in
  (* Materialise columns; [cols_of.(v)] lists v's (bundle, var) pairs,
     latest var first. *)
  let cols_of = Array.make n [] in
  for v = 0 to n - 1 do
    let support =
      Valuation.support inst.Instance.bidders.(v) ~k
      (* availability masks: a bidder may only receive channels open to it *)
      |> List.filter (fun (bundle, _) ->
             Bundle.equal bundle (Instance.restrict_bundle inst ~bidder:v bundle))
    in
    let zero = List.mem v zeroed in
    List.iter
      (fun (bundle, value) ->
        let obj = if zero then 0.0 else value in
        let var = Model.add_var m ~obj in
        cols_of.(v) <- (bundle, var) :: cols_of.(v))
      support
  done;
  (* Unit-mass rows. *)
  for v = 0 to n - 1 do
    if cols_of.(v) <> [] then
      ignore
        (Model.add_row m
           (List.map (fun (_, var) -> (var, 1.0)) cols_of.(v))
           Simplex.Le 1.0)
  done;
  (* Interference rows, skipping empty ones: one pass over v's backward
     neighbours fills all k rows of v. *)
  let coeffs = Array.make k [] in
  let rec gather channel w = function
    | [] -> ()
    | (bundle, var) :: rest ->
        if Bundle.mem channel bundle then coeffs.(channel) <- (var, w) :: coeffs.(channel);
        gather channel w rest
  in
  for v = 0 to n - 1 do
    Instance.iter_backward inst v (fun u ->
        for channel = 0 to k - 1 do
          let w = Instance.wbar inst ~channel u v in
          if w > 0.0 then gather channel w cols_of.(u)
        done);
    for channel = 0 to k - 1 do
      if coeffs.(channel) <> [] then begin
        ignore (Model.add_row m coeffs.(channel) Simplex.Le inst.Instance.rho);
        coeffs.(channel) <- []
      end
    done
  done;
  let vars = Array.make (Model.num_vars m) (0, Bundle.empty) in
  Array.iteri
    (fun v cols -> List.iter (fun (bundle, var) -> vars.(var) <- (v, bundle)) cols)
    cols_of;
  (m, vars)

let solve_explicit_stats ?zeroed ?warm_start ?max_iters ?deadline
    ?inject_warm_crash ?pricing ?presolve inst =
  let m, vars = stage ?zeroed inst in
  let ws =
    Model.solve_with_basis ?warm_start ?max_iters ?deadline
      ?inject_warm_crash ?pricing ?presolve m
  in
  let sol = ws.Model.solution in
  let numerical detail =
    Sa_util.Fail.raise_
      (Sa_util.Fail.Solver_numerical { stage = "lp.explicit"; detail })
  in
  (match sol.Model.status with
  | Simplex.Optimal -> ()
  | Simplex.Infeasible -> numerical "LP reported infeasible (packing LP is always feasible)"
  | Simplex.Unbounded -> numerical "LP reported unbounded (objective is bounded by Σ v_max)"
  | Simplex.Iteration_limit -> numerical "simplex iteration limit reached");
  let columns = ref [] in
  for var = Array.length vars - 1 downto 0 do
    let x = sol.Model.value var in
    if x > 1e-10 then begin
      let bidder, bundle = vars.(var) in
      columns := { bidder; bundle; x } :: !columns
    end
  done;
  let columns = Array.of_list !columns in
  ( { columns; objective = sol.Model.objective },
    {
      basis = ws.Model.basis;
      iterations = ws.Model.stats.Sa_lp.Revised.iterations;
      warm_start_used = ws.Model.stats.Sa_lp.Revised.warm_used;
    } )

let solve_explicit ?zeroed inst = fst (solve_explicit_stats ?zeroed inst)

let scale frac factor =
  if factor < 0.0 || factor > 1.0 then invalid_arg "Lp_relaxation.scale: factor in [0,1]";
  {
    columns = Array.map (fun c -> { c with x = c.x *. factor }) frac.columns;
    objective = frac.objective *. factor;
  }
