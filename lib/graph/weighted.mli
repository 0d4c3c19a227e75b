(** Edge-weighted conflict graphs (Section 3).

    A non-negative, possibly asymmetric weight [w u v] is attached to every
    ordered pair; a set [M] is independent when the incoming interference
    [Σ_{u ∈ M, u ≠ v} w u v < 1] for every [v ∈ M].  The algorithms use the
    symmetrised weights [w̄ u v = w u v + w v u] (Definition 2).

    Stored as the dense n×n matrix: O(1) lookup, mutable via [set]. *)

type t

val create : int -> t
(** [create n]: all weights zero. *)

val of_function : int -> (int -> int -> float) -> t
(** [of_function n f] sets [w u v = f u v] for all [u ≠ v]; diagonal forced
    to zero; negative weights rejected. *)

val of_graph : Graph.t -> t
(** Embed an unweighted graph: [w u v = 1] on edges (in both directions), so
    weighted independence coincides with graph independence. *)

val n : t -> int

val nnz : t -> int
(** Positive directed entries, counted in O(n²). *)

val w : t -> int -> int -> float
(** Directed weight into the second argument. *)

val wbar : t -> int -> int -> float
(** Symmetrised weight [w u v + w v u]. *)

val set : t -> int -> int -> float -> unit
(** [set t u v x] sets [w u v <- x]; rejects self-pairs and negative [x]. *)

val iter_out : t -> int -> (int -> float -> unit) -> unit
(** [iter_out t u f] calls [f v (w u v)] for every positive out-entry of
    [u], ascending in [v]. *)

val iter_wbar : t -> int -> (int -> float -> unit) -> unit
(** [iter_wbar t v f] calls [f u (wbar t u v)] for every [u ≠ v] with
    [wbar t u v > 0], ascending in [u] and without allocating: one scan of
    [v]'s row and column. *)

val is_independent : t -> int list -> bool
(** [Σ_{u ∈ set, u ≠ v} w u v] strictly below 1 for every member [v]. *)

val copy : t -> t
