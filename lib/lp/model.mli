(** Incremental LP model builder on top of the sparse revised simplex
    ({!Revised}).

    Callers register variables (all implicitly [≥ 0]) and sparse constraint
    rows, then [solve].  Variable and row handles are plain ints, stable
    across the model's lifetime, so callers can keep maps from model objects
    (bidder/bundle pairs, (vertex, channel) constraints) to handles.  Every
    solve stages the model with {!to_spec} and runs {!Revised.solve_spec}. *)

type t

type var = int
type row = int

val create : Simplex.direction -> t

val add_var : t -> obj:float -> var
(** New variable with the given objective coefficient. *)

val add_row : t -> (var * float) list -> Simplex.relation -> float -> row
(** [add_row t coeffs rel rhs] adds [Σ coeff·x rel rhs].  Repeated variables
    in [coeffs] are summed (0.0-seeded, in list order) when the model is
    staged for a solve.  Cost: [O(|coeffs|)] to validate the handles plus
    amortised [O(1)] to append the row (rows live in a grow-only array). *)

val add_to_row : t -> row -> var -> float -> unit
(** Add [coeff] to the entry of [var] in an existing row — lets column
    generation extend previously created constraints with new variables.
    [O(1)]: the entry is prepended to the row's coefficient list.  If the
    row already has an entry for [var], the two are summed at staging time
    like repeated variables in {!add_row}. *)

val num_vars : t -> int
val num_rows : t -> int

type solution = {
  status : Simplex.status;
  objective : float;
  value : var -> float;
  dual : row -> float;
}

val to_spec : Workspace.t -> t -> Revised.spec
(** Stage the model as a sparse column-major {!Revised.spec} in
    [O(vars + rows + entries)], writing into the given arena's {!Model}
    slots (so the spec is only valid until the next staging on that
    arena).  Each column lists its rows strictly ascending with one merged,
    nonzero entry per (row, var) — the matrix {!solve} hands to the
    simplex. *)

val solve :
  ?eps:float ->
  ?max_iters:int ->
  ?deadline:float ->
  t ->
  solution
(** Runs the revised simplex on the current model.  The model remains
    usable (more variables/rows may be added and [solve] called again —
    each call solves from scratch). *)

type warm_solution = {
  solution : solution;
  basis : Revised.basis option;
      (** optimal basis to reuse as a warm start for a same-shape model
          ([None] for non-optimal solves) *)
  stats : Revised.stats;
}

val solve_with_basis :
  ?eps:float ->
  ?max_iters:int ->
  ?warm_start:Revised.basis ->
  ?deadline:float ->
  ?inject_warm_crash:bool ->
  ?workspace:Workspace.t ->
  t ->
  warm_solution
(** {!solve}, exposing the warm-start machinery of {!Revised.solve_warm}:
    pass the basis returned by a previous solve of a same-shape model to
    skip the cold start.  An invalid basis degrades silently to a cold
    solve.

    The problem is staged as a sparse {!Revised.spec} straight from the
    row lists — no dense materialisation — using [workspace] (default:
    the calling domain's arena, {!Workspace.get}), which is also handed to
    the solver for its scratch state; a column-generation loop therefore
    re-solves with allocation proportional to the columns added since the
    last round, not to the matrix size.

    The basis token is tied to the model's variable/row layout, so callers
    must key caches on a fingerprint of that layout (see
    {!Sa_core.Serialize}).

    [deadline] is an absolute {!Sa_util.Timing.now} timestamp enforced
    inside the pivot loops ([Sa_util.Fail.Error (Timeout _)] past it);
    [inject_warm_crash] forwards {!Revised.solve_warm}'s fault-injection
    hook. *)
