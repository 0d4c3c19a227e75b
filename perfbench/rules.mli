(** Pure helpers of the serve benchmark: seed derivation, the summary
    statistics it reports, and the output-name and number rules of its
    result line. *)

val derive_seed : seed:int -> int -> int
(** [derive_seed ~seed i] is the seed of batch [i] in a run whose
    workload seed is [seed]: a SplitMix64 mix of both, in \[0, 2{^30}).
    Same arguments, same result, on every platform. *)

val median : float array -> float
(** Middle order statistic (mean of the two middle ones for an even
    count).  Requires a non-empty array; does not mutate it. *)

val tail : float array -> (float * float) option
(** [tail xs] is [Some (percentile, value)] for the highest percentile
    with at least 10 samples beyond it: [value] is the 11th largest
    sample and [percentile = 100 (n - 10) / n].  [None] when [xs] has
    fewer than 11 samples.  Does not mutate [xs]. *)

val valid_metric_name : string -> bool
(** A metric or workload name: 1 to 64 characters from
    [A-Za-z0-9_.-], the first a letter or a digit. *)

val json_number : float -> string
(** Decimal form of a finite float that parses back to the same value
    (15 significant digits when they suffice, else 17).
    @raise Invalid_argument on NaN or an infinity, which JSON cannot
    carry. *)
