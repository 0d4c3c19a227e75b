(** The inductive independence number ρ (Definitions 1 and 2).

    Computing ρ exactly over all orderings is itself intractable; the paper
    always works with a *given* ordering π supplied by the interference
    model.  This module evaluates ρ(π) — exactly via branch and bound where
    the budget allows, otherwise as a greedy lower bound — and provides the
    degeneracy ordering, which certifies ρ(π) ≤ degeneracy for unweighted
    graphs. *)

type estimate = { rho : float; exact : bool; witness_vertex : int }
(** [rho] is the largest backward independent-set mass found; [witness_vertex]
    attains it ([-1] on empty graphs). *)

val rho_unweighted : ?node_limit:int -> Graph.t -> Ordering.t -> estimate
(** ρ(π) per Definition 1: max over v of the maximum independent set inside
    Γ_π(v).  [rho] is integral (cast to float for a uniform interface). *)

val rho_weighted : ?node_limit:int -> Weighted.t -> Ordering.t -> estimate
(** ρ(π) per Definition 2: max over v of max_{M independent, M before v}
    Σ_{u ∈ M} w̄(u,v).  Candidates are restricted to u with w̄(u,v) > 0
    (zero-weight vertices never help the objective). *)

val degeneracy_ordering : Graph.t -> Ordering.t * int
(** Smallest-degree-last ordering and the graph degeneracy [d]; the returned
    ordering satisfies ρ(π) ≤ backward-degree ≤ d. *)

val check_unweighted_bound : Graph.t -> Ordering.t -> rho:int -> int list -> bool
(** [check_unweighted_bound g pi ~rho m] verifies the Definition-1 inequality
    for the specific independent set [m]: every vertex [v] has at most [rho]
    members of [m] in its backward neighbourhood.  Used by property tests. *)

val check_weighted_bound :
  Weighted.t -> Ordering.t -> rho:float -> int list -> bool
(** Definition-2 analogue: [Σ_{u ∈ m, π(u) < π(v)} w̄(u,v) <= rho] for every
    vertex [v], up to the default float tolerance. *)
