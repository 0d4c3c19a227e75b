(** Bidder valuations [b_{v,T}] and their demand oracles (Section 3.1).

    The algorithms interact with bidders in exactly two ways:

    - [value t bundle] — the valuation of being allocated exactly [bundle];
    - [demand t ~prices] — the demand oracle: a utility-maximising bundle
      under non-negative per-channel prices, i.e.
      [argmax_T (value T − Σ_{j∈T} prices.(j))], where the empty bundle
      (utility 0) is always available.

    Four standard bidding languages are provided.  [Xor] uses free-disposal
    semantics: the value of [T] is the best listed bid contained in [T], so
    with non-negative prices the demand oracle is exact over *all* bundles
    while only inspecting listed bids. *)

type t =
  | Xor of (Bundle.t * float) list
      (** explicit bids [(B, val)]; value of [T] = max over [B ⊆ T] *)
  | Additive of float array  (** per-channel values; [value T = Σ_{j∈T} v.(j)] *)
  | Unit_demand of float array  (** [value T = max_{j∈T} v.(j)] *)
  | Symmetric of float array
      (** [value T = f.(|T|)]; [f.(0)] must be 0; length [k+1] *)
  | Budget_additive of { values : float array; budget : float }
      (** [value T = min(budget, Σ_{j∈T} values.(j))] — additive up to a
          cap.  The exact demand oracle enumerates subsets of the
          positive-value channels (the underlying problem is a min-knapsack,
          NP-hard in general), so it requires at most 14 such channels. *)
  | Or_bids of (Bundle.t * float) list
      (** OR bids: atomic bids that may be satisfied *simultaneously* when
          disjoint — [value T] is the best total value of pairwise-disjoint
          atomic bids contained in [T] (weighted set packing, solved exactly
          by branch and bound over the ≤ 20 atomic bids accepted). *)

val validate : t -> k:int -> unit
(** Raises [Invalid_argument] if the representation is malformed for [k]
    channels: negative values, bids outside [\[k\]], [Symmetric] arrays of
    wrong length or non-zero [f.(0)], a positive or NaN value on an empty
    [Xor] bid, a NaN budget.  What it accepts values the empty bundle at
    exactly [±0] in every language, which the rounding stages rely on to
    sum welfare over the allocated bidders only. *)

val value : t -> Bundle.t -> float
(** Valuation of exactly [bundle]; always [≥ 0], and [0] on the empty
    bundle. *)

val demand : t -> prices:float array -> Bundle.t * float
(** [(bundle, utility)] maximising [value − price]; utility [≥ 0] and
    [(∅, 0)] when nothing positive exists.  Prices must be non-negative and
    of length [k]. *)

val max_value : t -> k:int -> float
(** [max_T value T] over all bundles — an upper bound used for pruning. *)

val support : t -> k:int -> (Bundle.t * float) list
(** A list of bundles that suffices for the LP: placing all probability mass
    on these bundles loses nothing (for [Xor] the listed bids; for the other
    languages an explicit enumeration — the per-cardinality optimum for
    [Symmetric], the full/singleton structure for [Additive]/[Unit_demand]).
    Empty bundles and zero-value entries are dropped. *)

val scale : t -> float -> t
(** Multiply all values by a non-negative factor (used by misreport tests). *)

val pp : Format.formatter -> t -> unit
