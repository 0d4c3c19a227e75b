(** Demand-oracle LP solving (Section 3.1).

    The explicit LP needs one column per (bidder, bundle) — exponential in
    [k] for general valuations.  The paper separates the dual with demand
    oracles under bidder-specific channel prices

    [p_{v,j} = Σ_{u: π(u) > π(v)} w̄_j(u,v) · y_{u,j}]

    and invokes the ellipsoid method.  This module implements the practical
    equivalent: column generation on the primal.  A restricted master LP is
    solved; its duals [y] (interference rows) and [z] (unit-mass rows) price
    the channels; every bidder's demand oracle proposes its utility-
    maximising bundle; columns with positive reduced cost
    [b_{v,T} − Σ_{j∈T} p_{v,j} − z_v > ε] enter the master.  With exact
    oracles the procedure terminates at the true LP optimum. *)

type stats = {
  iterations : int;  (** master re-solves *)
  columns_generated : int;  (** columns in the final master *)
  lp_solves_time : float;  (** seconds in the simplex *)
  seeded_columns : int;
      (** columns pre-loaded from the cross-job {!Column_pool} (0 without
          one) *)
}

(** Cross-job column pool: a bounded LRU of generated (bidder, bundle)
    columns keyed by conflict fingerprint
    ({!Sa_core.Serialize.conflict_fingerprint}), shared across solves the
    way the engine's basis cache shares warm bases.  A solve over a
    fingerprint the pool has seen seeds its restricted master from the
    pooled columns — after re-verifying each against its own bundle
    constraints — typically cutting the colgen round count on
    repeated-topology workloads.  Mutex-guarded; hit/miss counters are
    atomics, safe to read from any domain. *)
module Column_pool : sig
  type t

  val create : ?max_keys:int -> ?max_columns_per_key:int -> unit -> t
  (** LRU bounds: at most [max_keys] fingerprints (default 64), each
      holding at most [max_columns_per_key] columns (default 512,
      earliest-generated kept).  Rejects bounds < 1. *)

  val find : t -> string -> (int * Sa_val.Bundle.t) list
  (** Pooled columns for a fingerprint, in generation order ([] on miss).
      Counts a hit or miss and refreshes LRU recency. *)

  val store : t -> string -> (int * Sa_val.Bundle.t) list -> unit
  (** Merge columns (generation order) after the key's existing ones,
      deduplicated on (bidder, bundle), truncated to the per-key bound;
      evicts least-recently-used keys past [max_keys]. *)

  val entries : t -> int
  val hit_count : t -> int
  val miss_count : t -> int
end

val solve :
  ?max_rounds:int ->
  ?eps:float ->
  ?domains:int ->
  ?deadline:float ->
  ?on_stall:[ `Accept | `Fail ] ->
  ?column_pool:Column_pool.t * string ->
  Instance.t ->
  Lp_relaxation.fractional * stats
(** [max_rounds] caps master iterations (default 200).  Raises
    [Sa_util.Fail.Error (Solver_numerical _)] on simplex breakdown and
    [Sa_util.Fail.Error (Oracle_error _)] when a demand oracle raises.

    [deadline] is an absolute {!Sa_util.Timing.now} timestamp checked
    before every round and enforced inside the master's pivot loop; past
    it the solve raises [Sa_util.Fail.Error (Timeout _)].  [on_stall]
    decides what happens when the round budget runs out while columns are
    still improving: [`Accept] (default, historical behaviour) returns the
    restricted-master optimum, [`Fail] raises
    [Sa_util.Fail.Error (Colgen_stall _)].

    The master LP is warm-started across rounds from the previous optimal
    basis, with slack indices remapped as columns are appended.  The
    channel prices come from one {!Price_table} per solve, so each round
    recomputes only the prices whose duals moved.  Master re-solves share
    the domain's {!Sa_lp.Workspace} arena, so a re-solve allocates only
    for the columns added since the previous round.
    [domains] (default 1) fans the per-round demand-oracle calls across
    OCaml 5 domains with {!Pool.map_array}; answers merge in
    bidder order, so the generated column sequence — and every telemetry
    counter — is independent of the domain count.

    [column_pool] is a cross-job {!Column_pool} plus this instance's
    conflict fingerprint: pooled columns for the fingerprint seed the
    restricted master (each re-verified with
    {!Instance.restrict_bundle} and re-priced with this instance's
    valuations before entry), and every column this solve generates is
    interned back, in generation order.  The certified optimum is
    unaffected — seeding changes where colgen starts, not where it
    converges.

    After convergence the master is re-solved once from a cold start
    (final refactorization), so the returned solution is a pure function
    of the final column set rather than of the warm-start pivot history
    that discovered it.  In particular a pool-seeded solve that converges
    on its donor's column set reproduces the donor's certified objective
    bitwise. *)

(** The Section-3.1 raw price table [Σ_{u: π(u) > π(v)} w̄_j(u,v)·y(u,j)]
    for every (bidder v, channel j), before clamping and availability
    deterrents.  {!solve} reads its prices only through this table.  An
    update recomputes just the entries with a contributing dual that
    changed since the previous update, and each of those sums runs over
    {!Instance.iter_forward} in ascending id, so every entry is bitwise a
    full recompute's. *)
module Price_table : sig
  type t

  val create : Instance.t -> t
  (** All entries 0, as for all-zero duals. *)

  val update : t -> y:(int -> int -> float) -> unit
  (** Bring every entry up to date with the interference duals [y u j]. *)

  val raw : t -> bidder:int -> channel:int -> float
end
