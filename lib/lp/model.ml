type var = int
type row = int

type row_data = {
  mutable coeffs : (var * float) list;
  relation : Simplex.relation;
  rhs : float;
}

type t = {
  direction : Simplex.direction;
  mutable objs : float list; (* reversed *)
  mutable nvars : int;
  mutable rows : row_data array; (* grow-only; live prefix [0, nrows) *)
  mutable nrows : int;
}

let create direction = { direction; objs = []; nvars = 0; rows = [||]; nrows = 0 }

let add_var t ~obj =
  let v = t.nvars in
  t.objs <- obj :: t.objs;
  t.nvars <- t.nvars + 1;
  v

let check_var t v =
  if v < 0 || v >= t.nvars then invalid_arg "Model: variable out of range"

let add_row t coeffs relation rhs =
  List.iter (fun (v, _) -> check_var t v) coeffs;
  let r = t.nrows in
  let data = { coeffs; relation; rhs } in
  if r = Array.length t.rows then begin
    let grown = Array.make (max 16 (2 * r)) data in
    Array.blit t.rows 0 grown 0 r;
    t.rows <- grown
  end;
  t.rows.(r) <- data;
  t.nrows <- r + 1;
  r

let add_to_row t r v coeff =
  check_var t v;
  if r < 0 || r >= t.nrows then invalid_arg "Model.add_to_row: row out of range";
  let data = t.rows.(r) in
  data.coeffs <- (v, coeff) :: data.coeffs

let num_vars t = t.nvars
let num_rows t = t.nrows

type solution = {
  status : Simplex.status;
  objective : float;
  value : var -> float;
  dual : row -> float;
}

type warm_solution = {
  solution : solution;
  basis : Revised.basis option;
  stats : Revised.stats;
}

(* Workspace slot assignments (slots 16..23 of each typed pool belong to
   this module; see Workspace docs). *)
module Slot = struct
  (* float slots *)
  let obj = 16
  let rhs = 17
  let acc = 18
  let cval = 19

  (* int slots *)
  let stamp = 16
  let touched = 17
  let cstart = 18
  let crow = 19
  let next = 20
end

(* Build the sparse column-major spec directly from the row lists, into
   workspace buffers, so a column-generation re-solve allocates only for
   the columns added since the last round.  Duplicate (row, var) entries
   are summed starting from 0.0 in list order, and an entry is kept iff
   the merged value is nonzero. *)
let to_spec ws t =
  let nvars = t.nvars in
  let m = t.nrows in
  let rows_arr = t.rows in
  let c = Workspace.floats ws ~slot:Slot.obj nvars in
  List.iteri (fun k obj -> c.(nvars - 1 - k) <- obj) t.objs;
  let rel = Array.make m Simplex.Le in
  let rhs = Workspace.floats ws ~slot:Slot.rhs m in
  for i = 0 to m - 1 do
    rel.(i) <- rows_arr.(i).relation;
    rhs.(i) <- rows_arr.(i).rhs
  done;
  let stamp = Workspace.ints ws ~slot:Slot.stamp nvars in
  Array.fill stamp 0 nvars (-1);
  let acc = Workspace.floats ws ~slot:Slot.acc nvars in
  let touched = Workspace.ints ws ~slot:Slot.touched nvars in
  (* [merge_row tag i k] folds row [i]'s duplicate entries (0.0-seeded, in
     list order) and calls [k v value] for each var with a nonzero merged
     value.  [tag] keeps the two passes' stamps distinct without clearing
     the stamp array between them. *)
  let merge_row tag i k =
    let rd = rows_arr.(i) in
    let n = ref 0 in
    List.iter
      (fun (v, coeff) ->
        if stamp.(v) = tag then acc.(v) <- acc.(v) +. coeff
        else begin
          stamp.(v) <- tag;
          acc.(v) <- 0.0 +. coeff;
          touched.(!n) <- v;
          incr n
        end)
      rd.coeffs;
    for p = 0 to !n - 1 do
      let v = touched.(p) in
      if acc.(v) <> 0.0 then k v acc.(v)
    done
  in
  let cstart = Workspace.ints ws ~slot:Slot.cstart (nvars + 1) in
  Array.fill cstart 0 (nvars + 1) 0;
  for i = 0 to m - 1 do
    merge_row i i (fun v _ -> cstart.(v + 1) <- cstart.(v + 1) + 1)
  done;
  for j = 1 to nvars do
    cstart.(j) <- cstart.(j) + cstart.(j - 1)
  done;
  let nnz = cstart.(nvars) in
  let crow = Workspace.ints ws ~slot:Slot.crow (max 1 nnz) in
  let cval = Workspace.floats ws ~slot:Slot.cval (max 1 nnz) in
  let next = Workspace.ints ws ~slot:Slot.next nvars in
  Array.blit cstart 0 next 0 nvars;
  (* rows visited ascending, so each column's entries come out
     rows-ascending as the CSC contract requires *)
  for i = 0 to m - 1 do
    merge_row (i + m) i (fun v value ->
        let p = next.(v) in
        crow.(p) <- i;
        cval.(p) <- value;
        next.(v) <- p + 1)
  done;
  {
    Revised.s_direction = t.direction;
    s_nstruct = nvars;
    s_m = m;
    s_c = c;
    s_rel = rel;
    s_rhs = rhs;
    s_cstart = cstart;
    s_crow = crow;
    s_cval = cval;
  }

let wrap t sol =
  {
    status = sol.Simplex.status;
    objective = sol.Simplex.objective;
    value =
      (fun v ->
        check_var t v;
        sol.Simplex.x.(v));
    dual =
      (fun r ->
        if r < 0 || r >= t.nrows then invalid_arg "Model: row out of range";
        sol.Simplex.duals.(r));
  }

let solve_with_basis ?eps ?max_iters ?warm_start ?deadline ?inject_warm_crash
    ?workspace t =
  let ws = match workspace with Some ws -> ws | None -> Workspace.get () in
  let sol, basis, stats =
    Revised.solve_spec ?eps ?max_iters ?warm_start ?deadline ?inject_warm_crash
      ~workspace:ws (to_spec ws t)
  in
  { solution = wrap t sol; basis; stats }

let solve ?eps ?max_iters ?deadline t =
  (solve_with_basis ?eps ?max_iters ?deadline t).solution
