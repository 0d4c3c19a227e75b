(** Grow-only per-domain scratch arena for the LP hot path.

    A workspace owns one grow-only buffer per (element type, slot) pair and
    hands the same storage back on every acquisition, so steady-state
    solver traffic — FTRAN/BTRAN vectors, the eta-file backing store,
    pricing candidate lists, rounding trial buffers — stops allocating per solve.

    {b Ownership contract.}  [get ()] returns the calling domain's arena
    (Domain.DLS).  This is sound because {!Sa_core.Pool} never migrates a
    job between domains mid-batch: every solve of a job runs on the domain
    that claimed it, and a domain runs one item at a time.  Slot numbers
    partition the arena between client modules:

    - slots [0..15]: {!Revised} (solver core: CSC matrix, basis and x_B,
      FTRAN/BTRAN vectors with the FTRAN touched list and marks, pricing
      lists, the eta store, and the rebuild and warm-install scratch —
      column order, per-column drift values, initial basis, target
      marks)
    - slots [16..23]: {!Model} (sparse problem staging)
    - slots [24..31]: [Sa_core.Rounding]'s public [algorithm3] and
      [is_partly_feasible] (25, 27, 28; 24 and 26 unassigned, and no
      client, test references included, uses them — the randomized
      trials run on a rounding plan that allocates its buffers once per
      call)
    - slots [32..39]: unassigned ([Sa_core.Derand]'s rounding plan
      allocates its buffers once per call)

    A client may hold its slots only within one self-contained computation
    and must not retain them across a call into another client.  Acquired
    buffer contents beyond the requested prefix are unspecified; clients
    must initialise the range they use (this is also what keeps results
    bitwise independent of whatever previously ran on the domain).

    Telemetry: [lp.workspace.bytes_reused] counts requested bytes served
    from existing capacity; [lp.workspace.grows] counts buffer
    (re)allocations. *)

type t

val create : unit -> t
(** A fresh, empty arena (all buffers zero-capacity).  Used directly by
    tests that compare reused-arena solves against fresh-arena solves, and
    as the fallback when the domain arena is busy. *)

val get : unit -> t
(** The calling domain's arena. *)

val acquire : t -> bool
(** Mark the arena busy for an exclusive client.  Returns [false] if it
    already is — the caller must then fall back to [create ()] rather than
    trample the outer computation's buffers. *)

val release : t -> unit
(** Clear the busy flag set by {!acquire}. *)

val floats : t -> slot:int -> int -> float array
(** [floats t ~slot n] returns the arena's float buffer for [slot], grown
    (by doubling) to capacity [>= n].  Growth preserves the existing
    prefix, so a slot can serve as a bump pool that survives regrowth.
    Contents are otherwise unspecified. *)

val ints : t -> slot:int -> int -> int array
(** As {!floats}, for int buffers. *)

val bools : t -> slot:int -> int -> bool array
(** As {!floats}, for bool buffers. *)
