(** Problem instances: combinatorial auction with conflict graph (Problem 1).

    An instance bundles the conflict structure (unweighted graph, edge-
    weighted graph, or one graph per channel — Section 6's asymmetric
    channels), the number of channels [k], one valuation per bidder, the
    ordering π, and the inductive-independence parameter ρ used in the LP
    constraints (an upper bound on ρ(π), usually the model's theoretical
    bound). *)

type conflict =
  | Unweighted of Sa_graph.Graph.t
  | Edge_weighted of Sa_graph.Weighted.t
  | Per_channel of Sa_graph.Graph.t array
      (** asymmetric channels: graph [j] constrains channel [j] *)
  | Per_channel_weighted of Sa_graph.Weighted.t array
      (** Section 6 in full generality: a different edge-weight function
          [w_j] per channel *)

type t = private {
  conflict : conflict;
  k : int;
  bidders : Sa_val.Valuation.t array;
  ordering : Sa_graph.Ordering.t;
  rho : float;
  available : Sa_val.Bundle.t array;
      (** per-bidder channel availability: bidder [v] may only be allocated
          channels inside [available.(v)].  Models primary-user protection
          zones ("a primary user might allow access to a channel only for a
          subset of devices", §1).  Defaults to all channels. *)
}

val make :
  conflict:conflict ->
  k:int ->
  bidders:Sa_val.Valuation.t array ->
  ordering:Sa_graph.Ordering.t ->
  rho:float ->
  t
(** Validates: all sizes agree, [1 ≤ k ≤ 62] (and [|Per_channel| = k]),
    [rho ≥ 1], every valuation well-formed for [k].  Availability defaults
    to all channels for everyone; see {!with_available}. *)

val with_available : t -> Sa_val.Bundle.t array -> t
(** Replace the availability masks (validated against [k] and [n]). *)

val channel_available : t -> bidder:int -> channel:int -> bool

val restrict_bundle : t -> bidder:int -> Sa_val.Bundle.t -> Sa_val.Bundle.t
(** Intersect with the bidder's availability mask. *)

val n : t -> int
(** Number of bidders. *)

val wbar : t -> channel:int -> int -> int -> float
(** Symmetrised conflict weight between two bidders as seen by [channel]:
    1/0 for unweighted graphs, [w̄] for edge-weighted ones, and the
    channel's own graph for [Per_channel]. *)

val iter_backward : t -> int -> (int -> unit) -> unit
(** [iter_backward t v f] calls [f u] for every [u ≠ v] with [π(u) < π(v)]
    and [w̄_j(u,v) > 0] on at least one channel [j] — the backward
    neighbourhood Γπ(v) that the interference row of [v] sums over —
    in ascending id, with no allocation per neighbour.  Cost: [O(deg v)] for
    [Unweighted] conflicts, [O(n)] for [Edge_weighted] ones, [O(n·k)] for
    the per-channel kinds.  Callers that need one channel still test
    [wbar t ~channel u v > 0]. *)

val iter_forward : t -> int -> (int -> unit) -> unit
(** As {!iter_backward} for the vertices [u] with [π(u) > π(v)]. *)

val is_asymmetric : t -> bool

val independent_on_channel : t -> channel:int -> int list -> bool
(** Whether a set of bidders may share [channel]: graph independence,
    weighted independence, or independence in [G_channel]. *)

val max_welfare_upper_bound : t -> float
(** [Σ_v max_T b_{v,T}] — a crude bound used for pruning and sanity checks. *)
