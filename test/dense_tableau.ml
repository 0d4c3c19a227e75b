(* Dense two-phase primal simplex: the test-side reference engine.

   The library solves every LP with the sparse revised simplex
   ({!Sa_lp.Revised}); this tableau is the independent implementation the
   differential suites check it against.  Handles [max/min c^T x] subject
   to rows [a^T x {<=,>=,=} b] with [x >= 0].

   Pivoting is Dantzig's rule with an automatic switch to Bland's rule
   (which cannot cycle) once the iteration count suggests degeneracy.
   Dual values are recovered from the objective row of the final tableau:
   for a <=-row its slack column, for >=/= rows the retained artificial
   column.  [eps] is the pivot tolerance (default {!Tol.solve_eps});
   [max_iters] defaults to [50_000 + 50 * (rows + cols)]; [deadline] is an
   absolute {!Sa_util.Timing.now} timestamp, checked every 32 pivots, past
   which the solve raises [Sa_util.Fail.Error (Timeout _)]. *)

module Simplex = Sa_lp.Simplex
module Tol = Sa_lp.Tol
module Model = Sa_lp.Model
module Revised = Sa_lp.Revised
module Workspace = Sa_lp.Workspace

open Simplex

(* Internal tableau: [rows] is an (m) x (ncols+1) matrix (rhs in the last
   column), [obj] the reduced-cost row (z_j - c_j), [basis.(i)] the column
   basic in row i.  Everything is phrased as maximization. *)
type tableau = {
  m : int;
  ncols : int;
  tab : float array array;
  obj : float array; (* length ncols + 1; last entry is -z *)
  basis : int array;
  artificial : bool array; (* per column *)
}

let feas_eps = Tol.feas_eps

let pivot t ~row ~col ~eps =
  let piv = t.tab.(row).(col) in
  let r = t.tab.(row) in
  let inv = 1.0 /. piv in
  for j = 0 to t.ncols do
    r.(j) <- r.(j) *. inv
  done;
  r.(col) <- 1.0;
  for i = 0 to t.m - 1 do
    if i <> row then begin
      let factor = t.tab.(i).(col) in
      if Float.abs factor > eps then begin
        let ri = t.tab.(i) in
        for j = 0 to t.ncols do
          ri.(j) <- ri.(j) -. (factor *. r.(j))
        done;
        ri.(col) <- 0.0
      end
    end
  done;
  let factor = t.obj.(col) in
  if Float.abs factor > eps then begin
    for j = 0 to t.ncols do
      t.obj.(j) <- t.obj.(j) -. (factor *. r.(j))
    done;
    t.obj.(col) <- 0.0
  end;
  t.basis.(row) <- col

(* Recompute the reduced-cost row for cost vector [c_ext] (length ncols)
   from the current tableau: obj_j = sum_i c[basis i] * tab_i_j - c_j and the
   last entry accumulates -z = -sum_i c[basis i] * rhs_i. *)
let set_objective t c_ext =
  for j = 0 to t.ncols do
    t.obj.(j) <- 0.0
  done;
  for i = 0 to t.m - 1 do
    let cb = c_ext.(t.basis.(i)) in
    if cb <> 0.0 then begin
      let ri = t.tab.(i) in
      for j = 0 to t.ncols do
        t.obj.(j) <- t.obj.(j) +. (cb *. ri.(j))
      done
    end
  done;
  for j = 0 to t.ncols - 1 do
    t.obj.(j) <- t.obj.(j) -. c_ext.(j)
  done

(* One simplex phase.  [allowed j] restricts entering columns.  Returns
   [`Optimal], [`Unbounded] or [`Iteration_limit]; raises
   [Sa_util.Fail.Error (Timeout _)] when [deadline] (an absolute
   {!Sa_util.Timing.now} timestamp) expires — checked every 32 pivots so
   the monotonic clock stays off the pivot hot path. *)
let run_phase t ~eps ~max_iters ~allowed ~deadline ~started =
  let iter = ref 0 in
  let bland_threshold = max 2000 (10 * (t.m + t.ncols)) in
  let result = ref None in
  while !result = None do
    incr iter;
    (match deadline with
    | Some d when !iter land 31 = 0 && Sa_util.Timing.now () > d ->
        Sa_util.Fail.raise_
          (Sa_util.Fail.Timeout
             { stage = "lp.simplex"; elapsed_s = Sa_util.Timing.now () -. started })
    | _ -> ());
    if !iter > max_iters then result := Some `Iteration_limit
    else begin
      let use_bland = !iter > bland_threshold in
      (* entering column: reduced cost < -eps *)
      let enter = ref (-1) in
      let best = ref (-.eps) in
      (try
         for j = 0 to t.ncols - 1 do
           if allowed j && t.obj.(j) < -.eps then
             if use_bland then begin
               enter := j;
               raise Exit
             end
             else if t.obj.(j) < !best then begin
               best := t.obj.(j);
               enter := j
             end
         done
       with Exit -> ());
      if !enter < 0 then result := Some `Optimal
      else begin
        let col = !enter in
        (* ratio test *)
        let leave = ref (-1) in
        let best_ratio = ref infinity in
        for i = 0 to t.m - 1 do
          let a = t.tab.(i).(col) in
          if a > eps then begin
            let ratio = t.tab.(i).(t.ncols) /. a in
            if
              ratio < !best_ratio -. eps
              || (ratio < !best_ratio +. eps
                 && !leave >= 0
                 && t.basis.(i) < t.basis.(!leave))
            then begin
              best_ratio := ratio;
              leave := i
            end
          end
        done;
        if !leave < 0 then result := Some `Unbounded
        else pivot t ~row:!leave ~col ~eps
      end
    end
  done;
  match !result with Some r -> r | None -> assert false

let solve ?(eps = Tol.solve_eps) ?max_iters ?deadline { direction; c; rows } =
  let started = Sa_util.Timing.now () in
  let nstruct = Array.length c in
  let m = Array.length rows in
  Array.iter
    (fun (a, _, _) ->
      if Array.length a <> nstruct then
        invalid_arg "Dense_tableau.solve: row length mismatch")
    rows;
  (* Maximization internally. *)
  let sign = match direction with Maximize -> 1.0 | Minimize -> -1.0 in
  let cmax = Array.map (fun v -> sign *. v) c in
  (* Normalise rhs >= 0, flipping relations as needed; remember the flip to
     fix dual signs afterwards. *)
  let flip = Array.make m false in
  let norm_rows =
    Array.mapi
      (fun i (a, rel, b) ->
        if b < 0.0 then begin
          flip.(i) <- true;
          let rel' = match rel with Le -> Ge | Ge -> Le | Eq -> Eq in
          (Array.map (fun v -> -.v) a, rel', -.b)
        end
        else (Array.map Fun.id a, rel, b))
      rows
  in
  (* Column layout: structural | slack/surplus (one per row) | artificial
     (only for Ge/Eq rows). *)
  let n_art = Array.fold_left
      (fun acc (_, rel, _) -> match rel with Le -> acc | Ge | Eq -> acc + 1)
      0 norm_rows
  in
  let ncols = nstruct + m + n_art in
  let tab = Array.make_matrix m (ncols + 1) 0.0 in
  let basis = Array.make m (-1) in
  let artificial = Array.make ncols false in
  let slack_col = Array.make m (-1) in
  let art_col = Array.make m (-1) in
  let next_art = ref (nstruct + m) in
  Array.iteri
    (fun i (a, rel, b) ->
      Array.blit a 0 tab.(i) 0 nstruct;
      tab.(i).(ncols) <- b;
      let sc = nstruct + i in
      slack_col.(i) <- sc;
      (match rel with
      | Le ->
          tab.(i).(sc) <- 1.0;
          basis.(i) <- sc
      | Ge ->
          tab.(i).(sc) <- -1.0;
          let ac = !next_art in
          incr next_art;
          tab.(i).(ac) <- 1.0;
          artificial.(ac) <- true;
          art_col.(i) <- ac;
          basis.(i) <- ac
      | Eq ->
          (* the slack column stays all-zero for Eq rows *)
          let ac = !next_art in
          incr next_art;
          tab.(i).(ac) <- 1.0;
          artificial.(ac) <- true;
          art_col.(i) <- ac;
          basis.(i) <- ac))
    norm_rows;
  let t = { m; ncols; tab; obj = Array.make (ncols + 1) 0.0; basis; artificial } in
  let max_iters =
    match max_iters with Some v -> v | None -> 50_000 + (50 * (m + ncols))
  in
  let infeasible_solution status =
    {
      status;
      x = Array.make nstruct 0.0;
      objective = 0.0;
      duals = Array.make m 0.0;
    }
  in
  (* Phase 1: maximize -(sum of artificials). *)
  let phase1_needed = n_art > 0 in
  let phase1_ok =
    if not phase1_needed then `Optimal
    else begin
      let c1 = Array.make (ncols + 1) 0.0 in
      for j = 0 to ncols - 1 do
        if artificial.(j) then c1.(j) <- -1.0
      done;
      set_objective t c1;
      let r = run_phase t ~eps ~max_iters ~allowed:(fun _ -> true) ~deadline ~started in
      match r with
      | `Optimal ->
          (* phase-1 objective value = -(sum of artificials); the last
             objective-row entry tracks the current objective value. *)
          let z = t.obj.(ncols) in
          if z < -.feas_eps then `Infeasible
          else begin
            (* Drive basic artificials out where possible. *)
            for i = 0 to m - 1 do
              if artificial.(t.basis.(i)) then begin
                let piv_col = ref (-1) in
                for j = 0 to ncols - 1 do
                  if
                    !piv_col < 0 && (not artificial.(j))
                    && Float.abs t.tab.(i).(j) > Tol.driveout_eps
                  then piv_col := j
                done;
                if !piv_col >= 0 then pivot t ~row:i ~col:!piv_col ~eps
              end
            done;
            `Optimal
          end
      | `Unbounded -> `Infeasible (* cannot happen: phase-1 obj bounded by 0 *)
      | `Iteration_limit -> `Iteration_limit
    end
  in
  match phase1_ok with
  | `Infeasible -> infeasible_solution Infeasible
  | `Iteration_limit -> infeasible_solution Iteration_limit
  | `Optimal -> (
      (* Phase 2 with the real objective; artificial columns blocked. *)
      let c2 = Array.make (ncols + 1) 0.0 in
      Array.blit cmax 0 c2 0 nstruct;
      set_objective t c2;
      let allowed j = not artificial.(j) in
      match run_phase t ~eps ~max_iters ~allowed ~deadline ~started with
      | `Unbounded -> infeasible_solution Unbounded
      | `Iteration_limit -> infeasible_solution Iteration_limit
      | `Optimal ->
          let x = Array.make nstruct 0.0 in
          for i = 0 to m - 1 do
            if t.basis.(i) < nstruct then x.(t.basis.(i)) <- t.tab.(i).(ncols)
          done;
          (* clean tiny negatives due to roundoff *)
          for j = 0 to nstruct - 1 do
            if x.(j) < 0.0 && x.(j) > -.feas_eps then x.(j) <- 0.0
          done;
          let obj_internal = t.obj.(ncols) in
          let duals = Array.make m 0.0 in
          for i = 0 to m - 1 do
            let reader =
              if art_col.(i) >= 0 then t.obj.(art_col.(i))
              else t.obj.(slack_col.(i))
            in
            let y = if flip.(i) then -.reader else reader in
            duals.(i) <- sign *. y
          done;
          { status = Optimal; x; objective = sign *. obj_internal; duals })

(* The dense statement of a staged sparse spec: the same matrix, entry for
   entry (the spec has duplicate (row, var) entries merged and explicit
   zeros dropped). *)
let problem_of_spec (s : Revised.spec) =
  let n = s.s_nstruct in
  let rows = Array.init s.s_m (fun i -> (Array.make n 0.0, s.s_rel.(i), s.s_rhs.(i))) in
  for j = 0 to n - 1 do
    for p = s.s_cstart.(j) to s.s_cstart.(j + 1) - 1 do
      let a, _, _ = rows.(s.s_crow.(p)) in
      a.(j) <- s.s_cval.(p)
    done
  done;
  { direction = s.s_direction; c = Array.sub s.s_c 0 n; rows }

(* A model's LP as {!Model.to_spec} stages it for the production solve. *)
let problem_of_model m = problem_of_spec (Model.to_spec (Workspace.create ()) m)
