(** Derandomization by pairwise independence (Section 5 remark).

    The Theorem-3 analysis uses randomness only through (a) the marginal law
    of each bidder's rounded bundle and (b) a first-moment (Markov) bound on
    a sum over *pairs* of bidders — so pairwise-independent choices preserve
    the expectation bound.  This module replaces the independent draws with
    the classic affine family over a prime field:

    [h_{a,b}(v) = ((a·v + b) mod p) / p ∈ \[0,1)],  [(a,b) ∈ Z_p × Z_p],

    and *enumerates the whole seed family*, keeping the best feasible
    allocation.  Since the family realises the expectation bound on
    average, its best member is deterministic and at least as good — up to
    the [1/p] quantisation of the rounding probabilities, which the
    enumeration makes explicit rather than hidden in an ε.

    {b Independence holds below p only.}  For bidders [u ≠ v] with
    [u, v < p], [(a, b) ↦ (h(u), h(v))] is a bijection onto [Z_p²], so the
    pair is independent.  With [p] fixed at 101 that covers instances with
    at most 101 bidders.  Above that, bidders [v] and [v + 101] draw
    identical uniforms under every [(a, b)]: they are perfectly correlated,
    and the §5 argument does not apply to such pairs.  Derand jobs are
    still served at larger [n] (the sinr-fresh benchmark workload serves
    them at [n = 110]); choosing [p ≥ n] fixes this but changes the served
    results for [n > 101] (ROADMAP item 4).

    Cost: one {!Rounding.plan} per call, built with [~levels:p]: it
    stores, for each bidder with LP columns and each level [r ∈ \[0, p)],
    the column the inverse-CDF scan picks at the uniform [r/p], a flat w̄
    table over those bidders (edge-weighted instances) and the value of
    each of their bundles.  Seed [(a, b)] gives bidder [v] the level
    [(a·v + b) mod p], so for each [a] the non-empty picks are
    counting-sorted into buckets [b = (r − a·v) mod p], bidders ascending:
    O(p + Σ hits) per [a], where the hits are the (bidder, level) pairs
    that pick a non-empty bundle.  Candidate [(a, b)]'s active bidders are
    bucket [b], and the candidate costs O(active²): the conflict
    resolution over them, plus the welfare of the survivors.  Only a
    candidate that beats the best so far copies its allocation out, and
    [p²] = 10 201 candidates are scored per call.  The result is the best
    candidate, the earliest on ties, bitwise that of a full rounding pass
    per seed at the uniforms [h_{a,b}(v)] (the per-candidate reference in
    [test/derand_reference.ml]).

    Telemetry: each call is one [core.derand] span (inside [core.round]
    when the engine serves it) and adds [p²] to
    [core.derand.candidates]. *)

val prime : int
(** 101 — the field size; probabilities are quantised to multiples of 1/101. *)

val hash : a:int -> b:int -> int -> int
(** [hash ~a ~b v = (a·v + b) mod p]: bidder [v]'s uniform under seed
    [(a, b)] is [hash ~a ~b v / p]. *)

val algorithm1_derand : Instance.t -> Lp_relaxation.fractional -> Allocation.t
(** Deterministic counterpart of {!Rounding.algorithm1} (unweighted
    instances): enumerates the seed family and returns the best feasible
    allocation found.  Always feasible. *)

val algorithm23_derand : Instance.t -> Lp_relaxation.fractional -> Allocation.t
(** Deterministic counterpart of Algorithms 2+3 (edge-weighted instances). *)
