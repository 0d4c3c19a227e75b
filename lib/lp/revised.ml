(* Sparse revised simplex with a product-form-inverse eta file.

   Shares the external types with [Simplex].  Internally:
   - structural + slack/surplus + artificial columns, stored as one flat
     CSC matrix (cstart/crow/cval) in workspace buffers;
   - the basis inverse is kept as an eta file: B = E_1 E_2 ... E_K, each
     E_k identity except for one (sparse) column, so ftran/btran cost
     O(nnz) per eta instead of O(m^2) dense updates.  Identity etas
     (pivot exactly 1.0, no off-diagonal entries) are never stored.  The
     file lives in a structure-of-arrays bump store (eta_row/eta_pivot/
     eta_start backed by eta_idx/eta_vals pools) owned by the per-domain
     {!Workspace}, so steady-state solves stop allocating per pivot;
   - FTRAN keeps its result vector zero outside a touched-row list and
     hands that list, in ascending row order, to its consumers (eta
     append, x_B update, ratio test, crash row choice), so a pivot costs
     O(column nnz + etas + touched rows) rather than O(m);
   - the eta file is rebuilt from the current basis every
     [Tol.default_refactor_interval] pivots (sparsest-column-first greedy
     elimination through the same sparse FTRAN), with a drift check of
     the maintained basic solution against the recomputed one;
   - entering columns are chosen by Dantzig partial pricing over a small
     candidate list, with full cyclic scans only to replenish the list or
     prove optimality, falling back to Bland's rule after the anti-cycling
     threshold; ties break deterministically towards the lowest column
     index;
   - two phases, artificials blocked in phase 2.

   [solve_warm] additionally accepts a starting basis (typically the
   optimal basis of a previous solve on a same-shape problem) and, when
   that basis is still primal feasible for the new data, crash-pivots it
   into the eta representation and jumps straight to phase 2 — the
   warm-start path used by the batch engine's basis cache.

   All scratch state (CSC matrix, basis/x_b, FTRAN/BTRAN work vectors,
   pricing arrays, the eta store) is acquired from a {!Workspace} — by
   default the calling domain's arena — and fully (re)initialised over the
   range used, so results are bitwise independent of whatever solved on
   the domain before. *)

module Tel = Sa_telemetry.Metrics

let m_solves = Tel.counter "lp.revised.solves"
let m_pivots = Tel.counter "lp.revised.pivots"
let m_refactor = Tel.counter "lp.revised.refactorizations"
let m_pricing_scans = Tel.counter "lp.revised.pricing_scans"
let m_warm_attempts = Tel.counter "lp.revised.warm_attempts"
let m_warm_installs = Tel.counter "lp.revised.warm_installs"
let m_warm_rollbacks = Tel.counter "lp.revised.warm_rollbacks"
let h_solve = Tel.histogram "lp.revised.solve.seconds"
let log_src = Logs.Src.create "sa.lp.revised" ~doc:"Revised sparse simplex"

module Log = (val Logs.src_log log_src : Logs.LOG)

type basis = int array

type stats = { iterations : int; warm_used : bool }

type spec = {
  s_direction : Simplex.direction;
  s_nstruct : int;
  s_m : int;
  s_c : float array;
  s_rel : Simplex.relation array;
  s_rhs : float array;
  s_cstart : int array;
  s_crow : int array;
  s_cval : float array;
}

let feas_eps = Tol.feas_eps

(* Workspace slot assignments (slots 0..15 of each typed pool belong to
   this module; see Workspace docs).  Slot numbers are per element type,
   so float slot 0 and int slot 0 are distinct buffers. *)
module Slot = struct
  (* float slots *)
  let ftran = 0
  let btran = 1
  let xb = 2
  let scratch = 3
  let eta_pivot = 4
  let eta_vals = 5
  let cost1 = 6
  let cost2 = 7
  let cval = 8
  let rhs = 9

  (* int slots *)
  let basis = 0
  let cand = 1
  let eta_row = 2
  let eta_start = 3
  let eta_idx = 4
  let cstart = 5
  let crow = 6
  let order = 7
  let init_basis = 8
  let touched = 9
  let old_basis = 10

  (* bool slots *)
  let artificial = 0
  let in_basis = 1
  let flip = 2
  let assigned = 3
  let mark = 4
  let target = 5
end

type core = {
  m : int;
  ncols : int;
  nstruct : int;
  (* flat CSC over structural | slack | artificial columns *)
  cstart : int array; (* ncols + 1 *)
  crow : int array;
  cval : float array;
  artificial : bool array;
  b : float array;
  (* eta file, structure-of-arrays: eta k occupies header slot k and the
     idx/vals range [eta_start.(k), eta_start.(k+1)).  Fields are rebound
     when the workspace grows a buffer (growth preserves the prefix). *)
  mutable eta_row : int array;
  mutable eta_pivot : float array;
  mutable eta_start : int array; (* n_etas + 1 entries *)
  mutable eta_idx : int array;
  mutable eta_vals : float array;
  mutable n_etas : int;
  mutable eta_nnz : int;
  mutable pivots_since_refactor : int;
      (* the rebuilt file itself holds one eta per basis column, so the
         refactorization trigger must count pivots, not file length *)
  basis : int array;
  x_b : float array; (* fixed buffer; refactorization blits into it *)
  in_basis : bool array;
  w_ftran : float array;
      (* shared FTRAN result, valid until the next ftran; zero outside the
         first [n_touched] entries of [touched] *)
  touched : int array; (* rows FTRAN may have made nonzero, ascending *)
  mutable n_touched : int;
  mark : bool array; (* mark.(i) iff row i is in the touched list *)
  y_btran : float array; (* shared BTRAN result; valid until the next btran *)
  refactor_interval : int;
  ws : Workspace.t;
}

let col_dot t j v =
  let acc = ref 0.0 in
  for p = t.cstart.(j) to t.cstart.(j + 1) - 1 do
    acc := !acc +. (t.cval.(p) *. v.(t.crow.(p)))
  done;
  !acc

(* ------------------------------ eta store ------------------------------ *)

let ensure_eta_headers t =
  let need = t.n_etas + 1 in
  if Array.length t.eta_row < need then begin
    t.eta_row <- Workspace.ints t.ws ~slot:Slot.eta_row need;
    t.eta_pivot <- Workspace.floats t.ws ~slot:Slot.eta_pivot need
  end;
  if Array.length t.eta_start < need + 1 then
    t.eta_start <- Workspace.ints t.ws ~slot:Slot.eta_start (need + 1)

let ensure_eta_nnz t extra =
  let need = t.eta_nnz + extra in
  if Array.length t.eta_idx < need then begin
    t.eta_idx <- Workspace.ints t.ws ~slot:Slot.eta_idx need;
    t.eta_vals <- Workspace.floats t.ws ~slot:Slot.eta_vals need
  end

(* Append one eta built from the FTRAN result [w] (nonzero only on the
   touched rows) with the given pivot row.  Entries are stored in
   ascending row order.  An identity eta (pivot exactly 1.0, no
   off-diagonal entry) is not stored: FTRAN would compute [x /. 1.0] and
   BTRAN [(y -. 0.0) /. 1.0], both exact, so omitting it changes no bit. *)
let push_eta_from t ~row w =
  let touched = t.touched in
  let nnz = ref 0 in
  for k = 0 to t.n_touched - 1 do
    let i = touched.(k) in
    if i <> row && Float.abs w.(i) > Tol.eta_drop_eps then incr nnz
  done;
  if !nnz > 0 || w.(row) <> 1.0 then begin
    ensure_eta_headers t;
    ensure_eta_nnz t !nnz;
    let k = t.n_etas in
    t.eta_row.(k) <- row;
    t.eta_pivot.(k) <- w.(row);
    let p = ref t.eta_nnz in
    for q = 0 to t.n_touched - 1 do
      let i = touched.(q) in
      if i <> row && Float.abs w.(i) > Tol.eta_drop_eps then begin
        t.eta_idx.(!p) <- i;
        t.eta_vals.(!p) <- w.(i);
        incr p
      end
    done;
    t.eta_nnz <- !p;
    t.n_etas <- k + 1;
    t.eta_start.(k + 1) <- !p
  end

(* [Array.sort cmp] (the OCaml 5.1 stdlib ternary heap sort) on the prefix
   [a.(0 .. l-1)]: the same comparisons in the same order, hence the same
   placement of equal keys, without copying the prefix out of its
   workspace buffer.  Refactorization relies on that placement for its
   column order.  The helpers are top-level so that a sort allocates no
   closures. *)
let sort_maxson cmp a l i =
  let i31 = i + i + i + 1 in
  if i31 + 2 < l then begin
    let x = if cmp a.(i31) a.(i31 + 1) < 0 then i31 + 1 else i31 in
    if cmp a.(x) a.(i31 + 2) < 0 then i31 + 2 else x
  end
  else if i31 + 1 < l && cmp a.(i31) a.(i31 + 1) < 0 then i31 + 1
  else if i31 < l then i31
  else -1

let rec sort_trickle cmp a l i e =
  let j = sort_maxson cmp a l i in
  if j >= 0 && cmp a.(j) e > 0 then begin
    a.(i) <- a.(j);
    sort_trickle cmp a l j e
  end
  else a.(i) <- e

let rec sort_bubble cmp a l i =
  let j = sort_maxson cmp a l i in
  if j < 0 then i
  else begin
    a.(i) <- a.(j);
    sort_bubble cmp a l j
  end

let rec sort_trickleup cmp a i e =
  let father = (i - 1) / 3 in
  if cmp a.(father) e < 0 then begin
    a.(i) <- a.(father);
    if father > 0 then sort_trickleup cmp a father e else a.(0) <- e
  end
  else a.(i) <- e

let sort_prefix cmp a l =
  for i = ((l + 1) / 3) - 1 downto 0 do
    sort_trickle cmp a l i a.(i)
  done;
  for i = l - 1 downto 2 do
    let e = a.(i) in
    a.(i) <- a.(0);
    sort_trickleup cmp a (sort_bubble cmp a i 0) e
  done;
  if l > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end

(* In-place w := B^{-1} w over a dense vector, applying eta inverses
   oldest-to-newest.  An eta whose pivot-row entry is zero leaves the
   vector untouched.  Used for x_B = B^{-1} b after a rebuild; columns go
   through the sparse [ftran]. *)
let apply_etas t w =
  for k = 0 to t.n_etas - 1 do
    let r = t.eta_row.(k) in
    let xr = w.(r) in
    if xr <> 0.0 then begin
      let zr = xr /. t.eta_pivot.(k) in
      w.(r) <- zr;
      let idx = t.eta_idx and vals = t.eta_vals in
      for p = t.eta_start.(k) to t.eta_start.(k + 1) - 1 do
        w.(idx.(p)) <- w.(idx.(p)) -. (vals.(p) *. zr)
      done
    end
  done

(* Put the touched list back in ascending row order: a linear pass over
   the marks when the list is a large share of m, an in-place sort
   otherwise. *)
let sort_touched t =
  let n = t.n_touched in
  if n * 32 >= t.m then begin
    let q = ref 0 in
    for i = 0 to t.m - 1 do
      if t.mark.(i) then begin
        t.touched.(!q) <- i;
        incr q
      end
    done
  end
  else sort_prefix Int.compare t.touched n

(* w = B^{-1} A_j, into the shared FTRAN buffer.  The same float
   operations in the same order as a dense pass over [apply_etas]: only
   rows that are still exactly zero are skipped, and every row an eta
   writes joins the touched list. *)
let ftran t j =
  let w = t.w_ftran and touched = t.touched and mark = t.mark in
  for q = 0 to t.n_touched - 1 do
    let i = touched.(q) in
    w.(i) <- 0.0;
    mark.(i) <- false
  done;
  (* column rows are strictly ascending *)
  let n = ref 0 in
  for p = t.cstart.(j) to t.cstart.(j + 1) - 1 do
    let i = t.crow.(p) in
    w.(i) <- t.cval.(p);
    mark.(i) <- true;
    touched.(!n) <- i;
    incr n
  done;
  let sorted = ref true in
  let idx = t.eta_idx and vals = t.eta_vals in
  for k = 0 to t.n_etas - 1 do
    let r = t.eta_row.(k) in
    let xr = w.(r) in
    (* xr <> 0 means row r is touched, so the list is non-empty *)
    if xr <> 0.0 then begin
      let zr = xr /. t.eta_pivot.(k) in
      w.(r) <- zr;
      for p = t.eta_start.(k) to t.eta_start.(k + 1) - 1 do
        let i = idx.(p) in
        w.(i) <- w.(i) -. (vals.(p) *. zr);
        if not mark.(i) then begin
          mark.(i) <- true;
          if i < touched.(!n - 1) then sorted := false;
          touched.(!n) <- i;
          incr n
        end
      done
    end
  done;
  t.n_touched <- !n;
  if not !sorted then sort_touched t;
  w

(* y^T = c_B^T B^{-1}, into the shared BTRAN buffer: eta inverses applied
   newest-to-oldest. *)
let btran t costs =
  let y = t.y_btran in
  for i = 0 to t.m - 1 do
    y.(i) <- costs.(t.basis.(i))
  done;
  for k = t.n_etas - 1 downto 0 do
    let idx = t.eta_idx and vals = t.eta_vals in
    let s = ref 0.0 in
    for p = t.eta_start.(k) to t.eta_start.(k + 1) - 1 do
      s := !s +. (y.(idx.(p)) *. vals.(p))
    done;
    let r = t.eta_row.(k) in
    y.(r) <- (y.(r) -. !s) /. t.eta_pivot.(k)
  done;
  y

(* --------------------------- refactorization ---------------------------- *)

(* Rebuild the eta file from the current basis: greedy elimination,
   sparsest original column first, pivot row chosen by largest magnitude
   among the rows not yet assigned (lowest index on ties).  Rows may end
   up reassigned to different basis positions — harmless, since solution
   and duals depend only on the (column, row) pairing recorded in
   [t.basis].  Each column costs one sparse FTRAN over the etas built so
   far; slack columns whose row is still free give identity etas, which
   are not stored.  Finishes by recomputing x_B from scratch and checking
   drift of the incrementally maintained values. *)
let refactorize t =
  Tel.incr m_refactor;
  let m = t.m in
  (* [old] keeps the outgoing basis; [order] lists its positions sorted by
     column length.  Sorting positions under the columns' keys makes the
     same comparisons as sorting the columns, so the column order is the
     same. *)
  let old = Workspace.ints t.ws ~slot:Slot.old_basis m in
  let order = Workspace.ints t.ws ~slot:Slot.order m in
  for i = 0 to m - 1 do
    old.(i) <- t.basis.(i);
    order.(i) <- i
  done;
  t.n_etas <- 0;
  t.eta_nnz <- 0;
  t.eta_start.(0) <- 0;
  t.pivots_since_refactor <- 0;
  let col_len j = t.cstart.(j + 1) - t.cstart.(j) in
  sort_prefix (fun a b -> compare (col_len old.(a)) (col_len old.(b))) order m;
  let assigned = Workspace.bools t.ws ~slot:Slot.assigned m in
  Array.fill assigned 0 m false;
  let first_free = ref 0 in
  for q = 0 to m - 1 do
    let p = order.(q) in
    let j = old.(p) in
    let w = ftran t j in
    while assigned.(!first_free) do
      incr first_free
    done;
    (* A dense scan from the lowest free row keeps the first strictly
       larger |w_i|; rows outside the touched list are zero and never
       win, so scanning the touched list from the lowest free row picks
       the same row — the lowest free row itself when no free row is
       nonzero. *)
    let r = ref !first_free in
    for k = 0 to t.n_touched - 1 do
      let i = t.touched.(k) in
      if (not assigned.(i)) && Float.abs w.(i) > Float.abs w.(!r) then r := i
    done;
    let r = !r in
    if Float.abs w.(r) <= Tol.pivot_eps then
      (* Numerically singular basis column: fall back to a unit eta (an
         identity, so nothing is stored) to keep the factorization
         invertible; the drift check below reports the damage. *)
      Log.warn (fun f ->
          f "refactorization: near-singular pivot %.3e for column %d" w.(r) j)
    else push_eta_from t ~row:r w;
    assigned.(r) <- true;
    t.basis.(r) <- j;
    (* from here on, [old.(p)] is the row column [j] moved to *)
    old.(p) <- r
  done;
  let xb = Workspace.floats t.ws ~slot:Slot.scratch m in
  Array.blit t.b 0 xb 0 m;
  apply_etas t xb;
  (* drift check: compare each column's recomputed value with the one
     maintained at its old position *)
  let drift = ref 0.0 in
  for p = 0 to m - 1 do
    drift := Float.max !drift (Float.abs (xb.(old.(p)) -. t.x_b.(p)))
  done;
  if !drift > Tol.drift_eps then
    Log.warn (fun f ->
        f "refactorization drift %.3e exceeds %.1e (m=%d, pivots since last=%d)"
          !drift Tol.drift_eps t.m t.refactor_interval);
  Array.blit xb 0 t.x_b 0 m

(* Pivot [col] in at [row]; [w] is its FTRAN result and must still be the
   latest one (the touched list describes it). *)
let pivot t ~row ~col ~w =
  push_eta_from t ~row w;
  let xr = t.x_b.(row) /. w.(row) in
  t.x_b.(row) <- xr;
  for k = 0 to t.n_touched - 1 do
    let i = t.touched.(k) in
    if i <> row then begin
      let f = w.(i) in
      if Float.abs f > Tol.eta_drop_eps then t.x_b.(i) <- t.x_b.(i) -. (f *. xr)
    end
  done;
  t.in_basis.(t.basis.(row)) <- false;
  t.in_basis.(col) <- true;
  t.basis.(row) <- col;
  t.pivots_since_refactor <- t.pivots_since_refactor + 1;
  if t.pivots_since_refactor >= t.refactor_interval then refactorize t

(* ------------------------------- pricing -------------------------------- *)

let run_phase t ~costs ~eps ~max_iters ~allowed ~deadline ~started =
  let iter = ref 0 in
  let bland_threshold = max 2000 (10 * (t.m + t.ncols)) in
  (* Dantzig partial pricing: reduced costs are evaluated only over a small
     candidate list; a full (cyclic) scan runs just to replenish the list or
     to certify optimality. *)
  let cap = max 16 (t.ncols / 16) in
  let cand = Workspace.ints t.ws ~slot:Slot.cand cap in
  let n_cand = ref 0 in
  let scan_start = ref 0 in
  let reduced y j = costs.(j) -. col_dot t j y in
  let result = ref None in
  while !result = None do
    incr iter;
    (match deadline with
    | Some d when !iter land 31 = 0 && Sa_util.Timing.now () > d ->
        Tel.add m_pivots !iter;
        Sa_util.Fail.raise_
          (Sa_util.Fail.Timeout
             { stage = "lp.revised"; elapsed_s = Sa_util.Timing.now () -. started })
    | _ -> ());
    if !iter > max_iters then result := Some `Iteration_limit
    else begin
      let y = btran t costs in
      let use_bland = !iter > bland_threshold in
      let enter = ref (-1) in
      if use_bland then (
        (* Bland: lowest eligible index, full scan — anti-cycling. *)
        try
          for j = 0 to t.ncols - 1 do
            if allowed j && (not t.in_basis.(j)) && reduced y j > eps then begin
              enter := j;
              raise Exit
            end
          done
        with Exit -> ())
      else begin
        let best = ref eps in
        let keep = ref 0 in
        for k = 0 to !n_cand - 1 do
          let j = cand.(k) in
          if allowed j && not t.in_basis.(j) then begin
            let d = reduced y j in
            if d > eps then begin
              cand.(!keep) <- j;
              incr keep;
              if d > !best then begin
                best := d;
                enter := j
              end
            end
          end
        done;
        n_cand := !keep;
        if !enter < 0 then begin
          (* candidate list exhausted: cyclic full scan to refill *)
          Tel.incr m_pricing_scans;
          n_cand := 0;
          let scanned = ref 0 in
          let j = ref !scan_start in
          while !scanned < t.ncols && !n_cand < cap do
            let jj = !j in
            if allowed jj && not t.in_basis.(jj) then begin
              let d = reduced y jj in
              if d > eps then begin
                cand.(!n_cand) <- jj;
                incr n_cand;
                if d > !best then begin
                  best := d;
                  enter := jj
                end
              end
            end;
            incr scanned;
            j := if jj + 1 >= t.ncols then 0 else jj + 1
          done;
          scan_start := !j
        end
      end;
      if !enter < 0 then result := Some `Optimal
      else begin
        let col = !enter in
        let w = ftran t col in
        let leave = ref (-1) in
        let best_ratio = ref infinity in
        (* ascending rows: the tie-break below depends on scan order *)
        for k = 0 to t.n_touched - 1 do
          let i = t.touched.(k) in
          if w.(i) > eps then begin
            let ratio = t.x_b.(i) /. w.(i) in
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
        else pivot t ~row:!leave ~col ~w
      end
    end
  done;
  let status = match !result with Some r -> r | None -> assert false in
  Tel.add m_pivots !iter;
  (status, !iter)

(* ------------------------------ warm start ------------------------------ *)

(* Try to install [wb] as the starting basis by pivoting its missing
   columns into the initial (slack/artificial) basis — a "crash" start.
   The initial eta file is empty (identity) and a cached optimal basis is
   mostly slack columns, so this costs one eta per *structural* basic
   column.  Accept only if the basis assembles with stable pivots and the
   implied x_B is (tolerably) non-negative, i.e. still primal feasible for
   the new b; otherwise roll the core back to its pristine cold-start
   state. *)
let try_warm_basis ?(inject_crash = false) t wb =
  Tel.incr m_warm_attempts;
  (* marks the target columns; complete only once [valid] holds *)
  let in_target = Workspace.bools t.ws ~slot:Slot.target t.ncols in
  Array.fill in_target 0 t.ncols false;
  let valid =
    Array.length wb = t.m
    && Array.for_all (fun j -> j >= 0 && j < t.ncols && not t.artificial.(j)) wb
    && Array.for_all
         (fun j ->
           if in_target.(j) then false
           else begin
             in_target.(j) <- true;
             true
           end)
         wb
  in
  if not valid then false
  else begin
    let init_basis = Workspace.ints t.ws ~slot:Slot.init_basis t.m in
    Array.blit t.basis 0 init_basis 0 t.m;
    let reset () =
      Tel.incr m_warm_rollbacks;
      Log.debug (fun m ->
          m "warm basis rejected (stale for new data); cold start (m=%d)" t.m);
      Array.blit init_basis 0 t.basis 0 t.m;
      Array.fill t.in_basis 0 t.ncols false;
      for i = 0 to t.m - 1 do
        t.in_basis.(init_basis.(i)) <- true
      done;
      t.n_etas <- 0;
      t.eta_nnz <- 0;
      t.eta_start.(0) <- 0;
      t.pivots_since_refactor <- 0;
      Array.blit t.b 0 t.x_b 0 t.m;
      false
    in
    let ok = ref true in
    Array.iter
      (fun j ->
        if !ok && not t.in_basis.(j) then begin
          let w = ftran t j in
          let row = ref (-1) in
          for k = 0 to t.n_touched - 1 do
            let i = t.touched.(k) in
            if
              (not in_target.(t.basis.(i)))
              && Float.abs w.(i) > Tol.warm_pivot_eps
              && (!row < 0 || Float.abs w.(i) > Float.abs w.(!row))
            then row := i
          done;
          if !row < 0 then ok := false else pivot t ~row:!row ~col:j ~w
        end)
      wb;
    (* Fault-injection hook: pretend the crash pivot-in broke down *after*
       the state mutations above, so [reset] exercises the real rollback
       path rather than the cheap never-started one. *)
    if inject_crash then ok := false;
    let x_b_feasible () =
      let ok = ref true in
      for i = 0 to t.m - 1 do
        if t.x_b.(i) < -.feas_eps then ok := false
      done;
      !ok
    in
    if (not !ok) || not (x_b_feasible ()) then reset ()
    else begin
      for i = 0 to t.m - 1 do
        if t.x_b.(i) < 0.0 then t.x_b.(i) <- 0.0
      done;
      Tel.incr m_warm_installs;
      true
    end
  end

(* ------------------------------ solve core ------------------------------ *)

let solve_spec_impl ~ws ?(eps = Tol.solve_eps) ?max_iters ?warm_start
    ?deadline ?(inject_warm_crash = false) spec =
  let started = Sa_util.Timing.now () in
  (match deadline with
  | Some d when started > d ->
      Sa_util.Fail.raise_
        (Sa_util.Fail.Timeout { stage = "lp.revised"; elapsed_s = 0.0 })
  | _ -> ());
  let nstruct = spec.s_nstruct in
  let m = spec.s_m in
  let sign =
    match spec.s_direction with Simplex.Maximize -> 1.0 | Simplex.Minimize -> -1.0
  in
  (* Normalise rhs >= 0, flipping rows as needed; the flip is applied on
     the fly while assembling the internal CSC matrix. *)
  let flip = Workspace.bools ws ~slot:Slot.flip m in
  for i = 0 to m - 1 do
    flip.(i) <- spec.s_rhs.(i) < 0.0
  done;
  let rel i =
    let r = spec.s_rel.(i) in
    if flip.(i) then
      match r with Simplex.Le -> Simplex.Ge | Simplex.Ge -> Simplex.Le | Simplex.Eq -> Simplex.Eq
    else r
  in
  let n_art = ref 0 in
  let n_slack = ref 0 in
  for i = 0 to m - 1 do
    match rel i with
    | Simplex.Le -> incr n_slack
    | Simplex.Ge ->
        incr n_slack;
        incr n_art
    | Simplex.Eq -> incr n_art
  done;
  let n_art = !n_art in
  let ncols = nstruct + m + n_art in
  let nnz = spec.s_cstart.(nstruct) + !n_slack + n_art in
  let cstart = Workspace.ints ws ~slot:Slot.cstart (ncols + 1) in
  let crow = Workspace.ints ws ~slot:Slot.crow (max 1 nnz) in
  let cval = Workspace.floats ws ~slot:Slot.cval (max 1 nnz) in
  let artificial = Workspace.bools ws ~slot:Slot.artificial ncols in
  Array.fill artificial 0 ncols false;
  let b = Workspace.floats ws ~slot:Slot.rhs m in
  for i = 0 to m - 1 do
    b.(i) <- (if flip.(i) then -.spec.s_rhs.(i) else spec.s_rhs.(i))
  done;
  let basis = Workspace.ints ws ~slot:Slot.basis m in
  (* structural columns (rows ascending, zeros already dropped) *)
  let pos = ref 0 in
  for j = 0 to nstruct - 1 do
    cstart.(j) <- !pos;
    for p = spec.s_cstart.(j) to spec.s_cstart.(j + 1) - 1 do
      let r = spec.s_crow.(p) in
      crow.(!pos) <- r;
      cval.(!pos) <- (if flip.(r) then -.spec.s_cval.(p) else spec.s_cval.(p));
      incr pos
    done
  done;
  (* slack/surplus columns: one per row, empty for Eq rows *)
  for i = 0 to m - 1 do
    let sc = nstruct + i in
    cstart.(sc) <- !pos;
    match rel i with
    | Simplex.Le ->
        crow.(!pos) <- i;
        cval.(!pos) <- 1.0;
        incr pos;
        basis.(i) <- sc
    | Simplex.Ge ->
        crow.(!pos) <- i;
        cval.(!pos) <- -1.0;
        incr pos
    | Simplex.Eq -> ()
  done;
  (* artificial columns, assigned in row order for Ge/Eq rows *)
  let next_art = ref (nstruct + m) in
  for i = 0 to m - 1 do
    match rel i with
    | Simplex.Le -> ()
    | Simplex.Ge | Simplex.Eq ->
        let ac = !next_art in
        incr next_art;
        cstart.(ac) <- !pos;
        crow.(!pos) <- i;
        cval.(!pos) <- 1.0;
        incr pos;
        artificial.(ac) <- true;
        basis.(i) <- ac
  done;
  cstart.(ncols) <- !pos;
  let in_basis = Workspace.bools ws ~slot:Slot.in_basis ncols in
  Array.fill in_basis 0 ncols false;
  for i = 0 to m - 1 do
    in_basis.(basis.(i)) <- true
  done;
  let x_b = Workspace.floats ws ~slot:Slot.xb m in
  Array.blit b 0 x_b 0 m;
  let w_ftran = Workspace.floats ws ~slot:Slot.ftran m in
  Array.fill w_ftran 0 m 0.0;
  let mark = Workspace.bools ws ~slot:Slot.mark m in
  Array.fill mark 0 m false;
  let t =
    {
      m;
      ncols;
      nstruct;
      cstart;
      crow;
      cval;
      artificial;
      b;
      eta_row = Workspace.ints ws ~slot:Slot.eta_row 8;
      eta_pivot = Workspace.floats ws ~slot:Slot.eta_pivot 8;
      eta_start = Workspace.ints ws ~slot:Slot.eta_start 9;
      eta_idx = Workspace.ints ws ~slot:Slot.eta_idx 8;
      eta_vals = Workspace.floats ws ~slot:Slot.eta_vals 8;
      n_etas = 0;
      eta_nnz = 0;
      pivots_since_refactor = 0;
      basis;
      x_b;
      in_basis;
      w_ftran;
      touched = Workspace.ints ws ~slot:Slot.touched m;
      n_touched = 0;
      mark;
      y_btran = Workspace.floats ws ~slot:Slot.btran m;
      (* A rebuild runs one sparse FTRAN per basis column over the etas
         built so far: about (basis columns × stored etas) row checks plus
         the touched entries, with slack columns on free rows costing
         almost nothing.  The interval still grows with m so tall problems
         do not spend their time rebuilding. *)
      refactor_interval = max Tol.default_refactor_interval (m / 4);
      ws;
    }
  in
  t.eta_start.(0) <- 0;
  let max_iters =
    match max_iters with Some v -> v | None -> 50_000 + (50 * (m + ncols))
  in
  let infeasible_solution status =
    {
      Simplex.status;
      x = Array.make nstruct 0.0;
      objective = 0.0;
      duals = Array.make m 0.0;
    }
  in
  let c2 = Workspace.floats ws ~slot:Slot.cost2 ncols in
  Array.fill c2 0 ncols 0.0;
  for j = 0 to nstruct - 1 do
    c2.(j) <- sign *. spec.s_c.(j)
  done;
  let iterations = ref 0 in
  let warm_used =
    match warm_start with
    | None -> false
    | Some wb -> try_warm_basis ~inject_crash:inject_warm_crash t wb
  in
  let phase1 =
    if warm_used || n_art = 0 then `Optimal
    else begin
      let c1 = Workspace.floats ws ~slot:Slot.cost1 ncols in
      for j = 0 to ncols - 1 do
        c1.(j) <- (if artificial.(j) then -1.0 else 0.0)
      done;
      let status, iters =
        run_phase t ~costs:c1 ~eps ~max_iters ~allowed:(fun _ -> true) ~deadline
          ~started
      in
      iterations := !iterations + iters;
      match status with
      | `Optimal ->
          let z = ref 0.0 in
          for i = 0 to m - 1 do
            if artificial.(t.basis.(i)) then z := !z -. t.x_b.(i)
          done;
          if !z < -.feas_eps then `Infeasible
          else begin
            (* drive basic artificials out where a non-artificial pivot exists *)
            for i = 0 to m - 1 do
              if artificial.(t.basis.(i)) then begin
                let found = ref (-1) in
                for j = 0 to ncols - 1 do
                  if !found < 0 && (not artificial.(j)) && not t.in_basis.(j) then begin
                    let w = ftran t j in
                    if Float.abs w.(i) > Tol.driveout_eps then begin
                      pivot t ~row:i ~col:j ~w;
                      found := j
                    end
                  end
                done
              end
            done;
            `Optimal
          end
      | `Unbounded -> `Infeasible
      | `Iteration_limit -> `Iteration_limit
    end
  in
  let finish solution final_basis =
    (solution, final_basis, { iterations = !iterations; warm_used })
  in
  match phase1 with
  | `Infeasible -> finish (infeasible_solution Simplex.Infeasible) None
  | `Iteration_limit -> finish (infeasible_solution Simplex.Iteration_limit) None
  | `Optimal -> (
      let allowed j = not artificial.(j) in
      let status, iters =
        run_phase t ~costs:c2 ~eps ~max_iters ~allowed ~deadline ~started
      in
      iterations := !iterations + iters;
      match status with
      | `Unbounded -> finish (infeasible_solution Simplex.Unbounded) None
      | `Iteration_limit -> finish (infeasible_solution Simplex.Iteration_limit) None
      | `Optimal ->
          let x = Array.make nstruct 0.0 in
          for i = 0 to m - 1 do
            let col = t.basis.(i) in
            if col < nstruct then x.(col) <- t.x_b.(i)
          done;
          for j = 0 to nstruct - 1 do
            if x.(j) < 0.0 && x.(j) > -.feas_eps then x.(j) <- 0.0
          done;
          let y = btran t c2 in
          let duals = Array.make m 0.0 in
          for i = 0 to m - 1 do
            let v = if flip.(i) then -.y.(i) else y.(i) in
            duals.(i) <- sign *. v
          done;
          let objective =
            let acc = ref 0.0 in
            for i = 0 to m - 1 do
              acc := !acc +. (c2.(t.basis.(i)) *. t.x_b.(i))
            done;
            sign *. !acc
          in
          finish
            { Simplex.status = Simplex.Optimal; x; objective; duals }
            (Some (Array.sub t.basis 0 m)))

(* --------------------------- public interface --------------------------- *)

(* Dense problems are converted to the sparse spec once, up front; the
   conversion is cold-path (the column-generation masters build specs
   directly via [Model]). *)
let spec_of_problem { Simplex.direction; c; rows } =
  let nstruct = Array.length c in
  let m = Array.length rows in
  Array.iter
    (fun (a, _, _) ->
      if Array.length a <> nstruct then invalid_arg "Revised.solve: row length mismatch")
    rows;
  let rel = Array.map (fun (_, r, _) -> r) rows in
  let rhs = Array.map (fun (_, _, v) -> v) rows in
  let cstart = Array.make (nstruct + 1) 0 in
  for i = 0 to m - 1 do
    let a, _, _ = rows.(i) in
    for j = 0 to nstruct - 1 do
      if a.(j) <> 0.0 then cstart.(j + 1) <- cstart.(j + 1) + 1
    done
  done;
  for j = 1 to nstruct do
    cstart.(j) <- cstart.(j) + cstart.(j - 1)
  done;
  let nnz = cstart.(nstruct) in
  let crow = Array.make (max 1 nnz) 0 in
  let cval = Array.make (max 1 nnz) 0.0 in
  let next = Array.sub cstart 0 nstruct in
  for i = 0 to m - 1 do
    let a, _, _ = rows.(i) in
    for j = 0 to nstruct - 1 do
      if a.(j) <> 0.0 then begin
        let p = next.(j) in
        crow.(p) <- i;
        cval.(p) <- a.(j);
        next.(j) <- p + 1
      end
    done
  done;
  {
    s_direction = direction;
    s_nstruct = nstruct;
    s_m = m;
    s_c = c;
    s_rel = rel;
    s_rhs = rhs;
    s_cstart = cstart;
    s_crow = crow;
    s_cval = cval;
  }

let with_ws ?workspace f =
  let ws = match workspace with Some ws -> ws | None -> Workspace.get () in
  if Workspace.acquire ws then
    Fun.protect ~finally:(fun () -> Workspace.release ws) (fun () -> f ws)
  else
    (* the domain arena is busy (reentrant solve): fall back to a transient
       arena rather than trample the outer solve's buffers *)
    f (Workspace.create ())

let instrumented f =
  Sa_telemetry.Trace.with_span ~hist:h_solve "lp.revised.solve" (fun () ->
      Tel.incr m_solves;
      let alloc0 = Gc.allocated_bytes () in
      let ((solution, _, stats) as result) = f () in
      Sa_telemetry.Trace.add_attr "pivots" (string_of_int stats.iterations);
      Sa_telemetry.Trace.add_attr "warm" (string_of_bool stats.warm_used);
      Sa_telemetry.Trace.add_attr "alloc_bytes"
        (Printf.sprintf "%.0f" (Gc.allocated_bytes () -. alloc0));
      let status_label =
        match solution.Simplex.status with
        | Simplex.Optimal -> "optimal"
        | Simplex.Infeasible -> "infeasible"
        | Simplex.Unbounded -> "unbounded"
        | Simplex.Iteration_limit -> "iteration_limit"
      in
      Sa_telemetry.Eventlog.emit "revised_solve"
        [
          ("status", Sa_telemetry.Eventlog.Str status_label);
          ("pivots", Sa_telemetry.Eventlog.Int stats.iterations);
          ("warm", Sa_telemetry.Eventlog.Bool stats.warm_used);
          ("objective", Sa_telemetry.Eventlog.Float solution.Simplex.objective);
        ];
      result)

let solve_spec ?eps ?max_iters ?warm_start ?deadline ?inject_warm_crash
    ?workspace spec =
  with_ws ?workspace (fun ws ->
      instrumented (fun () ->
          solve_spec_impl ~ws ?eps ?max_iters ?warm_start ?deadline
            ?inject_warm_crash spec))

let solve_warm ?eps ?max_iters ?warm_start ?deadline ?inject_warm_crash
    ?workspace problem =
  let spec = spec_of_problem problem in
  solve_spec ?eps ?max_iters ?warm_start ?deadline ?inject_warm_crash
    ?workspace spec

let solve ?eps ?max_iters ?deadline ?workspace problem =
  let solution, _, _ = solve_warm ?eps ?max_iters ?deadline ?workspace problem in
  solution
