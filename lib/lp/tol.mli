(** Shared numerical tolerances for the LP layer. *)

val feas_eps : float
(** Feasibility / optimality tolerance: reduced costs above [-feas_eps] are
    treated as non-negative, residuals below [feas_eps] as satisfied.  Also
    the default [eps] for certification and for the pricing oracle. *)

val pivot_eps : float
(** Minimum acceptable pivot magnitude in the ratio test and during
    refactorization; smaller pivots are treated as zero. *)

val drift_eps : float
(** Allowed drift between the incrementally maintained basic solution and
    the one recomputed from scratch at refactorization time.  Exceeding it
    logs a warning and adopts the recomputed values. *)

val solve_eps : float
(** Default pivot-loop tolerance of the simplex: reduced costs
    below it are treated as zero in pricing, and it is the ratio-test
    tie-breaking band. *)

val driveout_eps : float
(** Minimum pivot magnitude accepted when driving a basic artificial
    variable out of a degenerate phase-1 optimum. *)

val eta_drop_eps : float
(** Entries of an eta column (or pivot update) smaller than this in
    magnitude are dropped as numerical noise rather than stored. *)

val warm_pivot_eps : float
(** Minimum pivot magnitude accepted while crash-pivoting a cached warm
    basis into the initial slack basis; smaller pivots reject the basis. *)

val cert_eps : float
(** Default tolerance for {!Certify.check}: primal/dual violations and the
    (scaled) duality gap must stay below it for a certificate. *)

val default_refactor_interval : int
(** Number of eta columns accumulated before the product-form inverse is
    rebuilt from the current basis. *)
