(** Workload files for the batch engine: a line-oriented description of
    job batches that [auction serve] replays through {!Engine}.

    Format (one [batch] line per job family, '#' comments allowed):
    {v
    specauction-workload 1
    batch model=protocol n=18 k=3 seed=11 algorithm=adaptive trials=4 repeat=6 revalue=true
    batch model=random n=16 k=3 seed=5 algorithm=lp-round repeat=4
    end
    v}

    [repeat=r] expands into [r] jobs on the same conflict topology; with
    [revalue=true] (default) repeats keep every bidder's bundle structure
    but re-draw the bid values — the repeated-auction pattern the engine's
    warm-start cache is built for (same
    {!Sa_core.Serialize.shape_fingerprint}, different objective). *)

type model = Protocol | Disk | Sinr | Clique | Asymmetric | Random_graph

val model_name : model -> string
val model_of_name : string -> model option

type spec = {
  model : model;
  n : int;
  k : int;
  seed : int;
  algorithm : Engine.algorithm;
  trials : int;
  repeat : int;
  revalue_bids : bool;
}

val spec :
  ?model:model ->
  ?n:int ->
  ?k:int ->
  ?seed:int ->
  ?algorithm:Engine.algorithm ->
  ?trials:int ->
  ?repeat:int ->
  ?revalue_bids:bool ->
  unit ->
  spec
(** Raises [Invalid_argument] when [n], [k], [trials] or [repeat] is below
    1, or [k] exceeds {!Sa_val.Bundle.max_channels}. *)

val revalue : seed:int -> Sa_core.Instance.t -> Sa_core.Instance.t
(** Re-draw every bid value (deterministically in [seed]) while keeping
    bundle structure, availability, conflict, ordering and ρ — the result
    has the same shape fingerprint as the input, so its LP warm-starts
    from the input's basis. *)

val to_string : spec list -> string
val of_string : string -> spec list
(** Raises [Sa_util.Fail.Error (Malformed_job { detail })] on malformed
    input, [detail] starting ["line N: "] with the 1-based number of the
    offending line (the last line for an empty input or a missing
    ['end']).  A batch whose [n], [k], [trials] or [repeat] is below 1,
    or whose [k] exceeds {!Sa_val.Bundle.max_channels}, is malformed, the
    rule {!spec} enforces. *)

val load : string -> spec list
val save : string -> spec list -> unit

val expand : Engine.t -> spec list -> Engine.job list
(** Materialise the job list: builds each batch's base instance (model
    [random] resolves ordering/ρ through the engine's topology cache),
    applies [revalue] to repeats, and numbers jobs sequentially from 0.
    Each batch's base-instance build runs in an [engine.workload.base]
    span (any [graph.rho] estimate nests inside it) and its shape
    fingerprint in an [engine.workload.fingerprint] span. *)

val demo : spec list
(** A small mixed workload used by [--demo] and the bench smoke run. *)
