(** The LP layer's shared problem and solution types.

    A problem is [max/min cᵀx] subject to rows [aᵀx {≤,≥,=} b] with
    [x ≥ 0].  It is solved by the sparse revised simplex ({!Revised}),
    usually through {!Model}; {!Certify} works on the same types.  The paper invokes the ellipsoid method for its
    polynomial-time arguments; any exact LP solver gives the same
    optimum. *)

type relation = Le | Ge | Eq

type direction = Maximize | Minimize

type problem = {
  direction : direction;
  c : float array;  (** objective coefficients, one per structural variable *)
  rows : (float array * relation * float) array;
      (** each [(a, rel, b)]: [aᵀx rel b]; [a] must match [c] in length *)
}

type status = Optimal | Infeasible | Unbounded | Iteration_limit

type solution = {
  status : status;
  x : float array;  (** structural variable values (zeros unless Optimal) *)
  objective : float;  (** in the problem's own direction *)
  duals : float array;
      (** one multiplier per row; sign convention: for a Maximize problem
          ≤-rows have y ≥ 0, ≥-rows y ≤ 0, =-rows free (and the reverse for
          Minimize), so that strong duality reads
          [objective = Σ_i duals.(i) * b_i] for non-degenerate optima. *)
}
