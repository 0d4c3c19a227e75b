(** The inductive independence number ρ (Definitions 1 and 2).

    Computing ρ exactly over all orderings is itself intractable; the paper
    always works with a *given* ordering π supplied by the interference
    model.  This module evaluates ρ(π) — exactly via branch and bound where
    the budget allows, otherwise as a greedy lower bound — and provides the
    degeneracy ordering, which certifies ρ(π) ≤ degeneracy for unweighted
    graphs. *)

type estimate = { rho : float; exact : bool; witness_vertex : int }
(** [rho] is the largest backward independent-set mass found; [witness_vertex]
    is the smallest vertex id attaining it ([-1] when no vertex has a
    backward candidate).  [exact] means [rho] is ρ(π): every vertex was
    either searched to completion within the node budget or bounded
    strictly below [rho] without a search.  When it is false, [rho] is
    still a lower bound on ρ(π), attained by an independent set.

    Both estimators search only the vertices that can still beat the
    incumbent.  Each vertex [v] gets an upper bound on its inner maximum:
    [|Γπ(v)|] in the unweighted case, its candidate mass
    [Σ_{π(u)<π(v), w̄(u,v)>0} w̄(u,v)] in the weighted one (profits are
    non-negative, so no independent subset exceeds it).  Vertices are
    visited by decreasing bound, ties by ascending id, and the visit stops
    at the first vertex whose bound lies strictly below the incumbent:
    [|Γπ(v)| < best] exactly, or [total·(1 + 4·m·ε) < best] for a vertex
    with [m] candidates, a margin that covers the rounding of both sums.
    A searched vertex runs the same branch and bound (same candidates in
    the same order, same [node_limit]) as a search of every vertex would,
    so [rho] and [witness_vertex] are bitwise what that full scan returns
    and only [exact] can differ, from false to true.  The counters
    [graph.rho.searches] and [graph.rho.pruned] count the vertices with a
    candidate that were searched and bounded away. *)

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
