(** Deterministic, splittable pseudo-random number generation.

    All randomized algorithms in this project take an explicit [Prng.t] so
    that experiments are reproducible from a single seed.  The implementation
    wraps [Random.State] (a lagged-Fibonacci generator in OCaml 5) and adds
    the handful of samplers the auction algorithms need. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] builds a generator determined entirely by [seed]. *)

val split : t -> t
(** [split g] returns a fresh generator seeded from [g]'s stream, advancing
    [g].  Used to hand independent streams to sub-computations so that adding
    draws in one place does not perturb another. *)

val copy : t -> t
(** [copy g] duplicates the current state (same future stream). *)

val float : t -> float -> float
(** [float g bound] draws uniformly from [\[0, bound)]. *)

val int : t -> int -> int
(** [int g bound] draws uniformly from [{0, ..., bound-1}]. Requires
    [bound > 0]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli g p] is [true] with probability [p] (clamped to [\[0,1\]]). *)

val uniform_in : t -> float -> float -> float
(** [uniform_in g lo hi] draws uniformly from [\[lo, hi)]. *)

val exponential : t -> float -> float
(** [exponential g lambda] draws from Exp(lambda), [lambda > 0]. *)

val gaussian : t -> mean:float -> stddev:float -> float
(** Box-Muller normal sample. *)

val pareto : t -> alpha:float -> xmin:float -> float
(** Heavy-tailed sample; used for valuation generation. *)

val poisson : t -> float -> int
(** [poisson g lambda] draws from Poisson(lambda), [lambda > 0] (Knuth's
    product method; fine for the small rates used in simulations). *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation g n] is a uniform random permutation of [0..n-1]. *)

val categorical : t -> float array -> int
(** [categorical g weights] draws index [i] with probability proportional to
    [weights.(i)].  Requires non-negative weights with positive sum.  The
    weights are summed left to right, so two arrays with the same entries
    give the same draw bitwise. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement g m n] draws [m] distinct values from
    [0..n-1], in random order.  Requires [m <= n]. *)
