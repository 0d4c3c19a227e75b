(** Persistent domain pool with dynamic self-scheduling and chunk-splitting
    work stealing.

    Worker domains are spawned lazily on the first batch that needs them
    and then parked on a condition variable between batches — no
    [Domain.spawn]/[Domain.join] per call.  A batch's items are claimed in
    chunks from a shared atomic cursor; the chunk size either is fixed
    ([?chunk]) or adapts to the remaining work
    ([max 1 (remaining / (2·participants))], capped at 64).  Once the
    cursor is exhausted, idle participants split the largest visible
    remainder of a busy sibling (top-half steal), which re-balances
    skewed-cost batches.

    {b Determinism.}  Scheduling only decides where an item runs:
    [map_array f arr] writes [f arr.(i)] into slot [i] of a preallocated
    result array, so the output is bitwise identical for every [domains]
    and [chunk] value (provided [f i] depends on [i] alone — the
    per-index-PRNG-stream convention the rounding and engine layers
    already follow).  The scheduler's own telemetry ([engine.pool.chunks],
    [engine.pool.steals]) is timing-dependent and excluded from the
    determinism contract.

    {b Nesting.}  The submitter always participates in its own batch and
    never waits for a free worker, so nested [map_array] calls (a parallel
    rounding stage inside a pool-executed engine job) cannot deadlock:
    every batch makes progress on its submitting domain alone. *)

type t

val create : unit -> t
(** A fresh pool with no workers (they are spawned on demand by
    {!map_array}). *)

val default : unit -> t
(** The process-wide pool behind every fan-out caller.  If the
    current default has been {!shutdown}, a fresh pool is created — the
    pool is restartable. *)

val default_domains : int
(** [recommended_domain_count () - 1], at least 1: the fan-out width
    {!Rounding.solve_par} uses when none is given. *)

val map_array : ?pool:t -> ?domains:int -> ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array f arr] is [Array.map f arr]; with [domains > 1] the items
    are scheduled across [min domains (length arr)] participants (the
    calling domain plus up to [domains - 1] pool workers).  [pool]
    defaults to {!default}[ ()]; [domains] defaults to 1 (callers that
    fan out pass their own, usually {!default_domains}); [chunk] fixes the
    self-scheduling chunk size (default: adaptive).

    Element 0 is computed eagerly on the caller to seed the result buffer,
    so the pool path allocates no per-element options.

    {b Failure contract}: if one or more applications of [f] raise, every
    item still runs to completion, and the exception of the {e
    lowest-index} failure is re-raised on the caller with its original
    backtrace — deterministic regardless of scheduling.

    Rejects [domains < 1] and [chunk < 1].  Raises [Invalid_argument] if
    [pool] was explicitly supplied and already shut down. *)

val worker_count : t -> int
(** Worker domains currently alive (0 until the first multi-domain
    batch). *)

val shutdown : t -> unit
(** Wake and join every worker.  Queued batches are drained first (each
    submitter is itself a participant, so no batch is lost).  Submitting
    to an explicitly shut-down pool raises; the {!default} pool is
    replaced on next use instead. *)
