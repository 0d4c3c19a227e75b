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

(** {2 Rounding plans}

    The per-job state of repeated rounding passes over the same LP
    solution: the by-size column split, each bidder's columns (bundles,
    LP values x and their left-to-right total) and the value of each of
    its bundles, and (edge-weighted instances) a flat w̄ table over the
    bidders with columns are built once.  Every randomized tier runs its
    trials on one plan per call ({!solve}, {!solve_adaptive}, the
    [algorithm*] wrappers; {!solve_par} one per trial): a trial draws
    bidder [v] with probability [total /. scale_down], then one of its
    columns with probability proportional to x, from the same PRNG calls
    in the same order at any scale, so the scale is a per-trial argument.
    The pairwise-independence derandomization ({!Derand}) builds one with
    [~levels:p]: the plan then also stores, for every bidder and every
    level [r] in [\[0, p)], the column the inverse-CDF scan of its running
    sums [acc +. x /. scale_down] picks at the uniform [r /. p]. *)

type plan

val plan :
  ?levels:int -> Instance.t -> Lp_relaxation.fractional -> scale_down:float -> plan
(** [levels] (default 0: no per-level picks) is the p of
    {!plan_slope}/{!plan_round_seed}; [scale_down] is the scale of those
    picks and is read only when [levels > 0]. *)

val plan_slope : plan -> a:int -> unit
(** [plan_slope p ~a] sorts the plan's per-level picks into the buckets
    of slope [a ∈ \[0, levels)]: bucket [b] holds the bidders whose level
    under seed [(a, b)], [(a·v + b) mod levels], picks a non-empty
    bundle, ascending.  O(levels + picks). *)

val plan_round_seed : plan -> b:int -> float
(** [plan_round_seed p ~b] runs one rounding pass ([Unweighted] and
    [Edge_weighted] instances only) at seed [(a, b)], [a] from the last
    {!plan_slope}: bidder [v] picks by inverse CDF at the uniform
    [float_of_int ((a·v + b) mod levels) /. float_of_int levels], a
    uniform equal to a running sum passing that column.  Each side (small
    bundles, large bundles) gets the resolution of {!algorithm1}
    (unweighted) or {!algorithm2} (edge-weighted), and the more valuable
    side wins, the small one on ties: the result is feasible (unweighted) or partly feasible
    (Condition (5)).  It returns the welfare of its result and costs the
    resolution over the bidders of bucket [b] only. *)

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
(** Practical variant: tries a geometric ladder of rounding scales,
    [trials] runs each (default 4), and keeps the best feasible allocation
    (the earliest on ties; the empty allocation if nothing beats it).  The
    ladder runs ascending from 1.0 up to the canonical [2√k·ρ] (resp.
    [4√k·ρ], [2k·ρ], [4k·ρ]): [c /. 2{^i}] for every [i] with
    [c /. 2{^i} > 1], preceded by 1.0, and the trials draw from the PRNG
    in that order.  The conflict-resolution stages enforce feasibility at
    *any* scale, so for a canonical scale above 1 this retains the
    worst-case guarantee (the canonical scale is included) while
    allocating much more aggressively on benign instances — the ablation
    of experiment E8.  A canonical scale at or below 1 gives the ladder
    [\[1.0\]] alone, without the canonical scale; [Instance.make]'s
    [rho ≥ 1] keeps every canonical scale at 2 or more. *)

val guarantee : Instance.t -> float
(** The theoretical approximation factor of {!solve} for this instance:
    [8√k·ρ], [16√k·ρ·log₂ n] or [4k·ρ] respectively (an upper bound on
    LP-opt / expected value). *)
