(** Plain-text (de)serialization of instances and allocations.

    A small line-oriented format (no external dependencies) so auctions can
    be saved, shared, and re-run: the CLI's [--save]/[--load].  The format
    is versioned; [of_string] validates everything through
    {!Instance.make}, so a loaded instance satisfies the same invariants as
    a constructed one.

    Format sketch (see [instance_to_string] output):
    {v
    specauction-instance 1
    n 4 k 2 rho 2.0
    ordering 0 1 2 3
    conflict unweighted
    edge 0 1
    end
    bidder 0 xor 2
    bid 1 5.0
    bid 3 7.5
    bidder 1 additive 1.0 2.0
    ...
    end
    v}
    Bundles are serialised as their bitmask integers. *)

val instance_to_string : Instance.t -> string

val instance_of_string : string -> Instance.t
(** Raises [Sa_util.Fail.Error (Malformed_job { detail })] on malformed
    input, [detail] starting ["line N: "] with the 1-based number of the
    offending line (the last line when the input ends early). *)

val allocation_to_string : Allocation.t -> string

val allocation_of_string : string -> Allocation.t
(** Raises [Sa_util.Fail.Error (Malformed_job _)] on malformed input, as
    {!instance_of_string}. *)

val fingerprint : Instance.t -> string
(** Hex digest of the full serialised instance — two instances share a
    fingerprint iff they serialise identically (conflict, ordering, k, ρ,
    availability, and every bid value). *)

val conflict_fingerprint : Instance.conflict -> string
(** Hex digest of the conflict structure alone.  Keys the engine's
    topology cache (ordering π, ρ estimate, neighborhood lists): two
    instances over the same (weighted) graph collide here even when their
    bidders differ. *)

val shape_fingerprint : Instance.t -> string
(** Hex digest of everything that determines the explicit LP's *layout*:
    conflict structure, ordering, k, ρ, and each bidder's availability-
    filtered support masks — but not the bid values.  Two instances with
    equal shape fingerprints build LPs with identical variable/row
    structure and constraint coefficients (only objectives differ), so a
    simplex basis cached under this key is a valid warm start
    ({!Sa_lp.Revised.solve_warm}). *)

val save_instance : string -> Instance.t -> unit
(** [save_instance path inst] writes the file. *)

val load_instance : string -> Instance.t
