(** The paper's LP relaxations — LP (1), LP (3) and the asymmetric variant.

    One variable [x_{v,T}] per (bidder, bundle) column; constraints:

    - interference, one per (vertex, channel):
      [Σ_{u: π(u)<π(v)} Σ_{T∋j} w̄_j(u,v)·x_{u,T} ≤ ρ]   (1b)/(3b)
    - unit mass per bidder: [Σ_T x_{v,T} ≤ 1]              (1c)/(3c)
    - [x ≥ 0].

    [solve_explicit] materialises columns from {!Sa_val.Valuation.support}
    (polynomial for XOR bids, exponential enumeration capped at small [k] for
    the other languages); the demand-oracle path lives in {!Oracle_solver}. *)

type column = { bidder : int; bundle : Sa_val.Bundle.t; x : float }

type fractional = {
  columns : column array;  (** only strictly positive entries *)
  objective : float;  (** LP optimum [b^*] *)
}

val by_bidder : fractional -> n:int -> (Sa_val.Bundle.t * float) list array
(** Per-bidder view of the solution. *)

val column_value : Instance.t -> column -> float
(** [b_{v,T} · x_{v,T}]. *)

val of_allocation : Instance.t -> Allocation.t -> fractional
(** The integral LP point of Lemma 1 (x_{v,S(v)} = 1). *)

val is_lp_feasible : ?eps:float -> Instance.t -> fractional -> bool
(** Checks (1b)/(3b), (1c) and non-negativity against the instance's ρ.
    The interference masses are pushed along each column's
    {!Instance.iter_forward} neighbourhood, so the check costs
    [O(n·k + nnz)] rather than a scan of every column per row. *)

val fractional_value_of_bidder : Instance.t -> fractional -> int -> float
(** [Σ_T b_{v,T}·x_{v,T}]. *)

val stage :
  ?zeroed:int list -> Instance.t -> Sa_lp.Model.t * (int * Sa_val.Bundle.t) array
(** The explicit LP as a {!Sa_lp.Model}, with the (bidder, bundle) pair of
    every variable (indexed by variable handle).  Variables run bidder-major
    in {!Sa_val.Valuation.support} order (bundles outside the bidder's
    availability mask dropped); rows are the unit-mass rows of bidders that
    have columns, then every non-empty interference row (v, j) in
    lexicographic order.  Row (v, j) is gathered from the columns of
    {!Instance.iter_backward} [v], so staging costs [O(n·k + nnz)] rather
    than a scan of every column per (vertex, channel).  [zeroed] as in
    {!solve_explicit}. *)

val solve_explicit : ?zeroed:int list -> Instance.t -> fractional
(** Solve the LP with explicit columns ({!stage}, then the revised simplex
    through {!Sa_lp.Model.solve_with_basis}).  [zeroed] lists bidders whose
    valuations are treated as identically zero (used for VCG-style payment
    computations: "the LP without bidder v").  Raises
    [Sa_util.Fail.Error (Solver_numerical _)] when the simplex fails to
    reach optimality. *)

type solve_stats = {
  basis : Sa_lp.Revised.basis option;
      (** optimal simplex basis; reusable as [warm_start] for any instance
          with the same {!Serialize.shape_fingerprint} *)
  iterations : int;  (** simplex pivots spent *)
  warm_start_used : bool;
}

val solve_explicit_stats :
  ?zeroed:int list ->
  ?warm_start:Sa_lp.Revised.basis ->
  ?max_iters:int ->
  ?deadline:float ->
  ?inject_warm_crash:bool ->
  ?pricing:Sa_lp.Model.pricing ->
  ?presolve:bool ->
  Instance.t ->
  fractional * solve_stats
(** {!solve_explicit} with the warm-start plumbing exposed: pass a basis
    cached from a previous same-shape solve to skip the cold start, and
    read back the basis/pivot counts the batch engine's cache records.

    [max_iters] caps simplex pivots per phase (the engine's per-job pivot
    budget; exceeding it surfaces as [Solver_numerical]); [deadline] is an
    absolute {!Sa_util.Timing.now} timestamp enforced in the pivot loop
    ([Sa_util.Fail.Error (Timeout _)] past it);
    [inject_warm_crash] forces the warm pivot-in to fail after mutating
    state, exercising the rollback path (fault injection); [pricing]
    selects the simplex's entering-variable rule (default [Dantzig]);
    [presolve] (default [false]) runs the {!Sa_lp.Presolve}
    reduction/scaling pipeline before the solve — results come back in
    original coordinates via the exact postsolve, so deterrent prices and
    certificates are unchanged within [Tol], but a [warm_start] basis
    from a revalued instance usually fails to install on the reduced LP
    and the solve then starts cold (see {!Sa_lp.Model.solve_with_basis}). *)

val scale : fractional -> float -> fractional
(** Scale every [x] (and the objective) by a factor in [\[0,1\]] — LP
    feasibility is preserved by the packing structure (Observation 2). *)
