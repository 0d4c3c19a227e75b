(** The paper's rounding algorithms.

    - {!algorithm1}: LP rounding for unweighted conflict graphs (§2.2).
      Expected value ≥ [b*/8√k·ρ] (Theorem 3).
    - {!algorithm2}: rounding to a *partly feasible* allocation for
      edge-weighted graphs (§3.2), expected value ≥ [b*/16√k·ρ] (Lemma 7).
    - {!algorithm3}: conflict-resolution decomposition turning a partly
      feasible allocation into a feasible one, losing ≤ [log₂ n] (Lemma 8).
    - {!algorithm_asymmetric}: the Section-6 variant for per-channel
      conflict graphs with scaling [1/2kρ].

    All rounding stages resolve conflicts against the *tentative* (rounded)
    allocation, exactly as the proofs of Lemma 4 / Lemma 7 analyse. *)

val algorithm1 :
  Sa_util.Prng.t -> Instance.t -> Lp_relaxation.fractional -> Allocation.t
(** Requires an [Unweighted] instance; the result is always feasible. *)

val algorithm1_scaled :
  Sa_util.Prng.t ->
  Instance.t ->
  Lp_relaxation.fractional ->
  scale_down:float ->
  Allocation.t
(** {!algorithm1} with an explicit rounding denominator instead of the
    canonical [2√k·ρ] — feasibility holds for any positive scale; only the
    Theorem-3 expectation bound needs the canonical one.  Exposed for the
    scale-ablation experiments. *)

val algorithm2_scaled :
  Sa_util.Prng.t ->
  Instance.t ->
  Lp_relaxation.fractional ->
  scale_down:float ->
  Allocation.t
(** {!algorithm2} with an explicit scale; Condition (5) holds regardless. *)

val algorithm_asymmetric_scaled :
  Sa_util.Prng.t ->
  Instance.t ->
  Lp_relaxation.fractional ->
  scale_down:float ->
  Allocation.t
(** {!algorithm_asymmetric} with an explicit scale. *)

val algorithm_asymmetric_weighted :
  Sa_util.Prng.t -> Instance.t -> Lp_relaxation.fractional -> Allocation.t
(** Section 6 in full generality — a different edge-weight function per
    channel ([Per_channel_weighted] instances).  Rounds with scale [4kρ]
    and enforces the per-channel Condition-(5) analogue; the output is
    partly feasible per channel and must be finished with
    {!algorithm3_asymmetric}.  Total factor [O(kρ log n)]. *)

val algorithm_asymmetric_weighted_scaled :
  Sa_util.Prng.t ->
  Instance.t ->
  Lp_relaxation.fractional ->
  scale_down:float ->
  Allocation.t
(** {!algorithm_asymmetric_weighted} with an explicit scale. *)

val algorithm3_asymmetric : Instance.t -> Allocation.t -> Allocation.t
(** Per-channel Algorithm-3 analogue for [Per_channel_weighted] instances:
    iteratively drops, by decreasing rank, any vertex one of whose channels
    receives incoming interference ≥ 1, keeping the best candidate.  Output
    is always feasible. *)

val algorithm2 :
  Sa_util.Prng.t -> Instance.t -> Lp_relaxation.fractional -> Allocation.t
(** Requires an [Edge_weighted] instance; the result satisfies the
    partly-feasible Condition (5) but may violate full independence. *)

val is_partly_feasible : Instance.t -> Allocation.t -> bool
(** Condition (5): backward shared-channel interference below 1/2 for every
    allocated vertex. *)

val algorithm3 : Instance.t -> Allocation.t -> Allocation.t
(** Requires [Edge_weighted]; input must satisfy Condition (5).  Decomposes
    into ≤ log₂ n feasible candidates and returns the most valuable. *)

val algorithm_asymmetric :
  Sa_util.Prng.t -> Instance.t -> Lp_relaxation.fractional -> Allocation.t
(** Requires a [Per_channel] instance; feasible output. *)

val solve :
  ?trials:int ->
  Sa_util.Prng.t ->
  Instance.t ->
  Lp_relaxation.fractional ->
  Allocation.t
(** Dispatch on the conflict structure and return the best feasible
    allocation over [trials] independent runs (default 8) — the
    "derandomization by repetition" used throughout the experiments. *)

val solve_par :
  ?domains:int ->
  ?chunk:int ->
  ?trials:int ->
  seed:int ->
  Instance.t ->
  Lp_relaxation.fractional ->
  Allocation.t
(** {!solve} with the trials fanned across OCaml 5 domains
    ({!Pool.map_array} with [domains] defaulting to
    {!Pool.default_domains}; [chunk] fixes the pool's self-scheduling chunk
    size).  Each trial runs on its own PRNG stream derived from [seed] and
    trial index — never from the domain assignment — and the best
    allocation is chosen in fixed index order, so the result is
    byte-identical across domain counts and chunk sizes. *)

val round_with_uniforms :
  Instance.t ->
  Lp_relaxation.fractional ->
  scale_down:float ->
  uniforms:float array ->
  Allocation.t
(** One deterministic rounding-plus-resolution pass where bidder [v]'s
    randomness is the supplied [uniforms.(v) ∈ \[0,1)] (inverse-CDF over its
    columns).  [uniforms] may be longer than [n] — a reused scratch buffer —
    in which case entries past [n - 1] are ignored.  Applies the resolution stage matching the conflict structure:
    the output is feasible for unweighted/per-channel instances and partly
    feasible (Condition (5)) for edge-weighted ones — feed it to
    {!algorithm3}.  This is one pass of a {!plan}. *)

(** {2 Rounding plans}

    The per-job state of repeated one-vector passes over the same LP
    solution, as the pairwise-independence derandomization ({!Derand})
    makes them: the by-size column split, each bidder's cumulative pick
    table and the value of each of its bundles, and (edge-weighted
    instances) a flat w̄ table over the bidders with columns are built
    once.  With [~levels:p] the plan also stores, for every bidder and
    every level [r] in [\[0, p)], the column the inverse-CDF scan picks at
    the uniform [r /. p].  A pass gives bitwise the result of
    {!round_with_uniforms} on the same uniforms. *)

type plan

val plan :
  ?levels:int -> Instance.t -> Lp_relaxation.fractional -> scale_down:float -> plan
(** [levels] (default 0: no per-level picks) is the p of
    {!plan_slope}/{!plan_round_seed}. *)

val plan_slope : plan -> a:int -> unit
(** [plan_slope p ~a] sorts the plan's per-level picks into the buckets
    of slope [a ∈ \[0, levels)]: bucket [b] holds the bidders whose level
    under seed [(a, b)], [(a·v + b) mod levels], picks a non-empty
    bundle, ascending.  O(levels + picks). *)

val plan_round_seed : plan -> b:int -> float
(** [plan_round_seed p ~b] runs one pass of {!round_with_uniforms}
    ([Unweighted] and [Edge_weighted] instances only) at seed [(a, b)],
    [a] from the last {!plan_slope}: bidder [v]'s uniform is
    [float_of_int ((a·v + b) mod levels) /. float_of_int levels].  It
    returns the welfare of its result and costs the resolution over the
    bidders of bucket [b] only. *)

val plan_algorithm3 : plan -> float
(** {!algorithm3} on the result of the last {!plan_round_seed}
    ([Edge_weighted] only, once per pass); returns the welfare of its
    output, which becomes the plan's result. *)

val plan_result : plan -> Allocation.t
(** A fresh copy of the last stage's result. *)

val solve_adaptive :
  ?trials:int ->
  Sa_util.Prng.t ->
  Instance.t ->
  Lp_relaxation.fractional ->
  Allocation.t
(** Practical variant: tries a geometric ladder of rounding scales from the
    canonical [2√k·ρ] (resp. [4√k·ρ], [2k·ρ]) down to 1, [trials] runs each
    (default 4), and keeps the best feasible allocation.  The conflict-
    resolution stages enforce feasibility at *any* scale, so this retains
    the worst-case guarantee (the canonical scale is included) while
    allocating much more aggressively on benign instances — the ablation of
    experiment E8. *)

val guarantee : Instance.t -> float
(** The theoretical approximation factor of {!solve} for this instance:
    [8√k·ρ], [16√k·ρ·log₂ n] or [4k·ρ] respectively (an upper bound on
    LP-opt / expected value). *)
