(** Edge-weighted conflict graphs (Section 3).

    A non-negative, possibly asymmetric weight [w u v] is attached to every
    ordered pair; a set [M] is independent when the incoming interference
    [Σ_{u ∈ M, u ≠ v} w u v < 1] for every [v ∈ M].  The algorithms use the
    symmetrised weights [w̄ u v = w u v + w v u] (Definition 2).

    Two representations share this interface:

    - {b dense} — the historical n×n matrix built by [create] /
      [of_function] / [of_graph]; O(1) lookup, mutable via [set].
    - {b sparse} — immutable CSR out-rows plus CSC in-columns over the
      entries at or above a weight floor [w_min], built by [of_entries].
      Each vertex [v] carries a certified bound [dropped_in_bound t v] on
      the total in-weight that was dropped below the floor, so a sparse
      independence check [Σ_{u ∈ M} w u v < 1] under-counts the true
      incoming interference by at most that explicit slack — enough to
      keep LP (3) feasibility auditable: a set accepted against the
      sparse graph violates the true constraint at [v] by less than
      [dropped_in_bound t v]. *)

type t

val create : int -> t
(** [create n]: all weights zero (dense). *)

val of_function : int -> (int -> int -> float) -> t
(** [of_function n f] sets [w u v = f u v] for all [u ≠ v]; diagonal forced
    to zero; negative weights rejected.  Dense. *)

val of_graph : Graph.t -> t
(** Embed an unweighted graph: [w u v = 1] on edges (in both directions), so
    weighted independence coincides with graph independence.  Dense. *)

val of_entries :
  int -> ?w_min:float -> ?dropped_in:float array -> (int * int * float) array -> t
(** [of_entries n ~w_min ~dropped_in entries] builds a sparse graph from
    directed [(u, v, x)] entries.  Entries with [x < w_min] (or [x = 0])
    are not stored; their weight is accumulated into vertex [v]'s dropped
    in-weight bound.  [dropped_in] (length [n], default all zero) seeds
    that bound with slack for entries the caller never enumerated — e.g. a
    per-row [w_min × (number of non-enumerated predecessors)] term from a
    distance-cutoff construction.  Rejects self-pairs, out-of-range
    vertices, negative/non-finite weights, and duplicate [(u, v)] pairs. *)

val n : t -> int

val is_sparse : t -> bool

val nnz : t -> int
(** Stored positive directed entries (sparse: stored entries; dense:
    positive matrix cells, counted in O(n²)). *)

val w_min : t -> float
(** The sparse weight floor; [0.] for dense graphs. *)

val dropped_in_bound : t -> int -> float
(** Certified upper bound on [Σ_u] true in-weight into [v] not represented
    in this graph; [0.] for dense graphs. *)

val w : t -> int -> int -> float
(** Directed weight into the second argument.  Sparse lookup is a binary
    search in [u]'s out-row. *)

val wbar : t -> int -> int -> float
(** Symmetrised weight [w u v + w v u]. *)

val set : t -> int -> int -> float -> unit
(** [set t u v x] sets [w u v <- x]; rejects self-pairs and negative [x].
    Raises [Invalid_argument] on sparse graphs (immutable). *)

val iter_out : t -> int -> (int -> float -> unit) -> unit
(** [iter_out t u f] calls [f v (w u v)] for every stored positive
    out-entry of [u], ascending in [v]. *)

val iter_into : t -> int -> (int -> float -> unit) -> unit
(** [iter_into t v f] calls [f u (w u v)] for every stored positive
    in-entry of [v], ascending in [u]. *)

val iter_wbar : t -> int -> (int -> float -> unit) -> unit
(** [iter_wbar t v f] calls [f u (wbar t u v)] for every [u ≠ v] with
    [wbar t u v > 0], ascending in [u] and without allocating: one row and
    column scan for dense graphs, a merge of [v]'s stored out- and
    in-entries for sparse ones. *)

val in_weight : t -> int -> float
(** Total stored in-weight [Σ_u w u v] (true row sum is within
    [dropped_in_bound t v] above this). *)

val incoming : t -> into:int -> int list -> float
(** [incoming t ~into:v set] is [Σ_{u ∈ set, u ≠ v} w u v]. *)

val is_independent : t -> int list -> bool
(** [incoming] strictly below 1 for every member. *)

val is_independent_arr : t -> bool array -> bool
(** Same over a membership mask (avoids list allocation in hot loops;
    sparse graphs scan only stored in-entries per member). *)

val copy : t -> t

val pp : Format.formatter -> t -> unit
