module Bundle = Sa_val.Bundle
module Valuation = Sa_val.Valuation
module Ordering = Sa_graph.Ordering
module Graph = Sa_graph.Graph
module Bitset = Sa_graph.Bitset
module Weighted = Sa_graph.Weighted
module Prng = Sa_util.Prng
module Floats = Sa_util.Floats
module Tel = Sa_telemetry.Metrics

let m_trials = Tel.counter "core.rounding.trials"
let m_improvements = Tel.counter "core.rounding.improvements"

(* The public [algorithm3] and [is_partly_feasible] borrow the domain's LP
   scratch arena for their active lists, w̄ tables and bidder values
   (slots 24-31 are reserved for this module; see [Sa_lp.Workspace]).
   They never run concurrently with a simplex solve on the same domain,
   and the slots are disjoint from the solver's in any case. *)
module Ws = Sa_lp.Workspace

let slot_active = 25
let slot_table = 27
let slot_values = 28

let split_by_size per_bidder ~threshold =
  let small =
    Array.map
      (List.filter (fun (b, _) -> float_of_int (Bundle.card b) <= threshold))
      per_bidder
  in
  let large =
    Array.map
      (List.filter (fun (b, _) -> float_of_int (Bundle.card b) > threshold))
      per_bidder
  in
  (small, large)

let require_conflict inst expected name =
  match (inst.Instance.conflict, expected) with
  | Instance.Unweighted g, `Unweighted -> `G g
  | Instance.Edge_weighted wg, `Weighted -> `W wg
  | Instance.Per_channel gs, `Per_channel -> `P gs
  | Instance.Per_channel_weighted wgs, `Per_channel_weighted -> `PW wgs
  | _ -> invalid_arg (name ^ ": wrong conflict structure for this algorithm")

let better inst a b = if Allocation.value inst a >= Allocation.value inst b then a else b

(* ------------------------------------------------------------------ *)
(* Active-set conflict resolution, shared by the randomized algorithms *)
(* and the one-vector passes of [Derand].                              *)
(*                                                                     *)
(* A bidder with an empty bundle intersects no bundle, so it adds      *)
(* nothing to any conflict sum, and its value is exactly ±0 for every  *)
(* valuation [Valuation.validate] accepts, so it adds nothing to a     *)
(* welfare sum that starts at +0.  The stages below therefore loop     *)
(* over the *active* bidders only — those with a non-empty bundle, in  *)
(* ascending id — and every float sum adds the same terms in the same  *)
(* order as a scan over all n bidders: the results are bitwise those   *)
(* of the full scans.                                                  *)
(*                                                                     *)
(* The sums read w̄ from a [wtable] and bidder values from a per-vertex *)
(* [float array] ([tval.(v)] = [Allocation.bidder_value] of the bundle *)
(* [v] holds), both filled by the same [Weighted.wbar] and             *)
(* [Valuation.value] calls the sums made before, so they add the same  *)
(* floats.                                                             *)

(* Algorithm 3's scratch, sized for n bidders. *)
type scratch = {
  si : Bundle.t array;  (** the current candidate; all empty between calls *)
  order : int array;  (** the input bidders by decreasing rank *)
  rem : int array;  (** bidders of the current candidate *)
  removed : int array;  (** bidders dropped in the current pass *)
  kept : int array;  (** the best candidate's bidders, ascending *)
  mutable n_kept : int;
}

let scratch n =
  {
    si = Array.make n Bundle.empty;
    order = Array.make n 0;
    rem = Array.make n 0;
    removed = Array.make n 0;
    kept = Array.make n 0;
    n_kept = 0;
  }

(* w̄ over a set of bidders in one flat unboxed table: member [v] sits at
   index [at.(v)] ([at] is read for members only) and
   [w.(at.(v) * size + at.(u))] is [Weighted.wbar wg u v].  IEEE-754
   addition is commutative, so [wbar u v] and [wbar v u] are the same
   float and one call fills both cells. *)
type wtable = { at : int array; size : int; w : float array }

let fill_wtable wg ~at ~w ids len =
  for i = 0 to len - 1 do
    at.(ids.(i)) <- i;
    w.((i * len) + i) <- 0.0;
    for j = 0 to i - 1 do
      let x = Weighted.wbar wg ids.(j) ids.(i) in
      w.((i * len) + j) <- x;
      w.((j * len) + i) <- x
    done
  done;
  { at; size = len; w }

(* The bidders holding a non-empty bundle of [alloc], ascending, in the
   arena's active-list slot. *)
let active_of alloc =
  let ids = Ws.ints (Ws.get ()) ~slot:slot_active (Array.length alloc) in
  let len = ref 0 in
  for v = 0 to Array.length alloc - 1 do
    if not (Bundle.is_empty alloc.(v)) then begin
      ids.(!len) <- v;
      incr len
    end
  done;
  (ids, !len)


(* The w̄ table over [ids.(0 .. len-1)], in the arena's table slots. *)
let wtable_of wg ids len =
  let ws = Ws.get () in
  fill_wtable wg
    ~at:(Ws.ints ws ~slot:slot_table (Weighted.n wg))
    ~w:(Ws.floats ws ~slot:slot_table (len * len))
    ids len

(* [tval.(v)] for the bidders [ids.(0 .. len-1)] of [alloc], in the
   arena's value slot. *)
let values_of inst alloc ids len =
  let tval = Ws.floats (Ws.get ()) ~slot:slot_values (Array.length alloc) in
  for i = 0 to len - 1 do
    let v = ids.(i) in
    tval.(v) <- Allocation.bidder_value inst alloc v
  done;
  tval

(* [Allocation.value] of the allocation giving their bundles to the
   bidders [ids.(0 .. len-1)] (ascending) and nothing to the others. *)
let value_of tval ids len =
  let total = ref 0.0 in
  for i = 0 to len - 1 do
    total := !total +. tval.(ids.(i))
  done;
  !total

let materialize n t ids len =
  let alloc = Allocation.empty n in
  for i = 0 to len - 1 do
    let v = ids.(i) in
    alloc.(v) <- t.(v)
  done;
  alloc

(* Algorithm 1's resolution: the active bidders [act.(0 .. n_act-1)] of
   the tentative bundles [t] that no earlier (in π) active neighbour
   shares a channel with go to [surv], ascending; returns their count.
   [mask] is all clear on entry and on exit; the per-vertex check scans
   only the set bits of row ∧ mask, with one test closure per call (it
   reads the vertex under test from [cur]) rather than one per vertex. *)
let resolve_unweighted_into pi g mask t act n_act surv =
  for i = 0 to n_act - 1 do
    Bitset.add mask act.(i)
  done;
  let cur = ref 0 in
  let conflicts u = Ordering.precedes pi u !cur && Bundle.intersects t.(u) t.(!cur) in
  let n_surv = ref 0 in
  for i = 0 to n_act - 1 do
    let v = act.(i) in
    cur := v;
    if not (Graph.exists_row_inter g v mask conflicts) then begin
      surv.(!n_surv) <- v;
      incr n_surv
    end
  done;
  for i = 0 to n_act - 1 do
    Bitset.remove mask act.(i)
  done;
  !n_surv

(* Condition (5) fails at [v]: its backward shared-channel mass, Σ w̄(u,v)
   over the active u before v in π whose bundle meets v's, summed in
   ascending u, reaches 1/2.  (A bool, not the sum: a float result would
   be boxed on every call.) *)
let condition5_fails pi wt t act n_act v =
  let tv = t.(v) in
  let row = wt.at.(v) * wt.size in
  let total = ref 0.0 in
  for i = 0 to n_act - 1 do
    let u = act.(i) in
    if u <> v && Ordering.precedes pi u v && Bundle.intersects t.(u) tv then
      total := !total +. wt.w.(row + wt.at.(u))
  done;
  !total >= 0.5

(* Algorithm 2's resolution (Condition (5)): an active bidder whose
   backward shared mass reaches 1/2 is dropped; the others go to [surv],
   ascending; returns their count. *)
let resolve_partial_into pi wt t act n_act surv =
  let n_surv = ref 0 in
  for i = 0 to n_act - 1 do
    let v = act.(i) in
    if not (condition5_fails pi wt t act n_act v) then begin
      surv.(!n_surv) <- v;
      incr n_surv
    end
  done;
  !n_surv

(* Algorithm 3 on the partly feasible allocation giving [t.(v)] (worth
   [tval.(v)]) to the bidders [ids.(0 .. len-1)] (ascending).  Leaves the
   best candidate's bidders in [sc.kept] (ascending, [sc.n_kept] of them;
   none when no candidate beats the empty allocation) and returns its
   value.  Each pass visits the candidate's bidders by decreasing rank
   and sums a bidder's incoming interference over the bidders still
   present, in ascending id. *)
let algorithm3_into pi wt tval sc t ids len =
  (* insertion sort by decreasing rank: the order a scan of π from the
     back meets them *)
  for i = 0 to len - 1 do
    let v = ids.(i) in
    let r = Ordering.rank pi v in
    let j = ref i in
    while !j > 0 && Ordering.rank pi sc.order.(!j - 1) < r do
      sc.order.(!j) <- sc.order.(!j - 1);
      decr j
    done;
    sc.order.(!j) <- v
  done;
  Array.blit ids 0 sc.rem 0 len;
  let n_rem = ref len in
  let best_value = ref 0.0 in
  sc.n_kept <- 0;
  let continue_ = ref (len > 0) in
  while !continue_ do
    (* Candidate S_i: the vertices removed from every previous pass. *)
    for i = 0 to !n_rem - 1 do
      let v = sc.rem.(i) in
      sc.si.(v) <- t.(v)
    done;
    let n_removed = ref 0 in
    (* Full conflict resolution by decreasing rank: a vertex is dropped when
       its incoming interference from vertices still present reaches 1. *)
    for i = 0 to len - 1 do
      let v = sc.order.(i) in
      let sv = sc.si.(v) in
      if not (Bundle.is_empty sv) then begin
        let row = wt.at.(v) * wt.size in
        let incoming = ref 0.0 in
        for j = 0 to len - 1 do
          let u = ids.(j) in
          if u <> v && Bundle.intersects sc.si.(u) sv then
            incoming := !incoming +. wt.w.(row + wt.at.(u))
        done;
        if !incoming >= 1.0 then begin
          sc.si.(v) <- Bundle.empty;
          sc.removed.(!n_removed) <- v;
          incr n_removed
        end
      end
    done;
    let value = ref 0.0 in
    for j = 0 to len - 1 do
      let u = ids.(j) in
      if not (Bundle.is_empty sc.si.(u)) then value := !value +. tval.(u)
    done;
    if not (!best_value >= !value) then begin
      best_value := !value;
      sc.n_kept <- 0;
      for j = 0 to len - 1 do
        let u = ids.(j) in
        if not (Bundle.is_empty sc.si.(u)) then begin
          sc.kept.(sc.n_kept) <- u;
          sc.n_kept <- sc.n_kept + 1
        end
      done
    end;
    for j = 0 to len - 1 do
      sc.si.(ids.(j)) <- Bundle.empty
    done;
    if !n_removed = 0 || !n_removed >= !n_rem then continue_ := false
    else begin
      Array.blit sc.removed 0 sc.rem 0 !n_removed;
      n_rem := !n_removed
    end
  done;
  !best_value

(* ------------------------------------------------------------------ *)
(* Rounding plans: the per-job state of repeated rounding passes over  *)
(* one LP solution.  Bidder v picks bundle T with probability          *)
(* x_{v,T} / scale_down and the empty bundle with the remaining        *)
(* probability, by a PRNG draw (the randomized tiers) or by an         *)
(* inverse-CDF scan at an explicit level (the derandomization).        *)
(*                                                                     *)
(* Everything that does not depend on the draw is built once per plan: *)
(* the by-size column split, each bidder's bundles, their values and   *)
(* LP values x in [Lp_relaxation.by_bidder] order, the left-to-right   *)
(* total of those x, the w̄ table over the bidders with columns, and   *)
(* the buffers the passes reuse.  A randomized trial passes its scale  *)
(* per draw, so one plan serves every trial of a call at every scale.  *)
(*                                                                     *)
(* With [~levels:p], the plan also records the draws that land at each *)
(* level: bidder v's pick at u = r/p for every r in [0, p), by an      *)
(* inverse-CDF scan of its running sums [acc +. x /. scale_down].     *)
(* Seed (a, b) gives v the level (a·v + b) mod p, so                   *)
(* [plan_slope ~a] counting-sorts every non-empty pick into its bucket *)
(* b = (r − a·v) mod p, bidders ascending, and the active bidders of   *)
(* seed (a, b) are bucket b: a pass costs the resolution over them.    *)

type side = {
  bidders : int array;  (** bidders with columns on this side, ascending *)
  bundles : Bundle.t array array;  (** [bidders.(i)]'s column bundles *)
  values : float array array;  (** their values to [bidders.(i)] *)
  xs : float array array;  (** their LP values x *)
  totals : float array;  (** [Σ xs.(i)], summed left to right *)
  (* the non-empty picks at every level, ascending in bidder then level:
     bidder [hit_v.(h)] draws [hit_bundle.(h)], worth [hit_value.(h)], at
     level [hit_level.(h)] *)
  hit_v : int array;
  hit_level : int array;
  hit_bundle : Bundle.t array;
  hit_value : float array;
  hit_bucket : int array;  (** each hit's bucket under the current slope *)
  start : int array;
      (** bucket b holds the hits [by_bucket.(start.(b) .. start.(b+1) - 1)] *)
  cursor : int array;
  by_bucket : int array;
  t : Bundle.t array;  (** tentative bundles; read for the active bidders only *)
  tval : float array;  (** their values *)
  act : int array;  (** active bidders of the last draw, ascending *)
  mutable n_act : int;
  surv : int array;  (** survivors of the last resolution, ascending *)
  mutable n_surv : int;
  mutable value : float;  (** their welfare *)
}

type plan = {
  inst : Instance.t;
  sides : side array;
      (** small then large bundles ([Unweighted], [Edge_weighted]), or all
          columns (per-channel instances) *)
  levels : int;  (** p, or 0 without per-level picks *)
  mutable slope : int;  (** a of the current buckets, or -1 *)
  mask : int array;  (** Algorithm 1's active-bidder mask, clear between passes *)
  wt : wtable;  (** w̄ over the bidders with columns ([Edge_weighted] only) *)
  sc : scratch;
  (* the last stage's result: [res_t.(v)], worth [res_tval.(v)], for the
     bidders in [res_ids.(0 .. res_len-1)], nothing for the others *)
  mutable res_t : Bundle.t array;
  mutable res_tval : float array;
  mutable res_ids : int array;
  mutable res_len : int;
}

let with_columns ~n per_bidder =
  Array.of_list (List.filter (fun v -> per_bidder.(v) <> []) (List.init n Fun.id))

(* Inverse-CDF pick: the first column whose running sum exceeds [u], or
   [Array.length cum] for none. *)
let pick cum u =
  let j = ref 0 in
  while !j < Array.length cum && not (u < cum.(!j)) do
    incr j
  done;
  !j

(* [scale_down] enters the per-level picks only. *)
let side_of inst ~n ~scale_down ~levels per_bidder =
  let bidders = with_columns ~n per_bidder in
  let cols = Array.map (fun v -> Array.of_list per_bidder.(v)) bidders in
  let bundles = Array.map (Array.map fst) cols in
  let xs = Array.map (Array.map snd) cols in
  let totals = Array.map (Array.fold_left ( +. ) 0.0) xs in
  let cum =
    if levels = 0 then [||]
    else
      Array.map
        (fun x ->
          let acc = ref 0.0 in
          Array.map
            (fun x ->
              acc := !acc +. (x /. scale_down);
              !acc)
            x)
        xs
  in
  let values =
    Array.mapi
      (fun i bs ->
        Array.map (Valuation.value inst.Instance.bidders.(bidders.(i))) bs)
      bundles
  in
  (* [f i r j] for every non-empty pick [j] of bidder [bidders.(i)] at
     level [r], ascending in [i] then [r] *)
  let iter_hits f =
    for i = 0 to Array.length bidders - 1 do
      for r = 0 to levels - 1 do
        let j = pick cum.(i) (float_of_int r /. float_of_int levels) in
        if j < Array.length cum.(i) && not (Bundle.is_empty bundles.(i).(j)) then f i r j
      done
    done
  in
  let n_hits = ref 0 in
  iter_hits (fun _ _ _ -> incr n_hits);
  let hit_v = Array.make !n_hits 0
  and hit_level = Array.make !n_hits 0
  and hit_bundle = Array.make !n_hits Bundle.empty
  and hit_value = Array.make !n_hits 0.0 in
  let h = ref 0 in
  iter_hits (fun i r j ->
      hit_v.(!h) <- bidders.(i);
      hit_level.(!h) <- r;
      hit_bundle.(!h) <- bundles.(i).(j);
      hit_value.(!h) <- values.(i).(j);
      incr h);
  let m = Array.length bidders in
  {
    bidders;
    bundles;
    values;
    xs;
    totals;
    hit_v;
    hit_level;
    hit_bundle;
    hit_value;
    hit_bucket = Array.make !n_hits 0;
    start = Array.make (levels + 1) 0;
    cursor = Array.make levels 0;
    by_bucket = Array.make !n_hits 0;
    t = Array.make n Bundle.empty;
    tval = Array.make n 0.0;
    act = Array.make m 0;
    n_act = 0;
    surv = Array.make m 0;
    n_surv = 0;
    value = 0.0;
  }

let plan ?(levels = 0) inst frac ~scale_down =
  if levels < 0 then invalid_arg "Rounding.plan: negative levels";
  let n = Instance.n inst in
  let per_bidder = Lp_relaxation.by_bidder frac ~n in
  let side = side_of inst ~n ~scale_down ~levels in
  let sides =
    match inst.Instance.conflict with
    | Instance.Unweighted _ | Instance.Edge_weighted _ ->
        let k = float_of_int inst.Instance.k in
        let small, large = split_by_size per_bidder ~threshold:(sqrt k) in
        [| side small; side large |]
    | Instance.Per_channel _ | Instance.Per_channel_weighted _ -> [| side per_bidder |]
  in
  let wt =
    match inst.Instance.conflict with
    | Instance.Edge_weighted wg ->
        let bidders = with_columns ~n per_bidder in
        let m = Array.length bidders in
        fill_wtable wg ~at:(Array.make n 0) ~w:(Array.create_float (m * m)) bidders m
    | Instance.Unweighted _ | Instance.Per_channel _ | Instance.Per_channel_weighted _ ->
        { at = [||]; size = 0; w = [||] }
  in
  {
    inst;
    sides;
    levels;
    slope = -1;
    mask = Bitset.create n;
    wt;
    sc = scratch n;
    res_t = sides.(0).t;
    res_tval = sides.(0).tval;
    res_ids = sides.(0).surv;
    res_len = 0;
  }

(* The randomized draw of [s] at [scale_down], bidders ascending: bidder
   i draws at all with probability [p_any = totals.(i) /. scale_down]
   ([Prng.bernoulli] draws nothing at p_any >= 1, and nothing is drawn at
   p_any <= 0), then picks column j with probability [xs.(i).(j)] over
   their total ([Prng.categorical] sums the same x in the same order).
   A picked empty bundle leaves the bidder inactive. *)
let draw g s ~scale_down =
  s.n_act <- 0;
  for i = 0 to Array.length s.bidders - 1 do
    let p_any = s.totals.(i) /. scale_down in
    if p_any > 0.0 && Prng.bernoulli g p_any then begin
      let j = Prng.categorical g s.xs.(i) in
      let bundle = s.bundles.(i).(j) in
      if not (Bundle.is_empty bundle) then begin
        let v = s.bidders.(i) in
        s.t.(v) <- bundle;
        s.tval.(v) <- s.values.(i).(j);
        s.act.(s.n_act) <- v;
        s.n_act <- s.n_act + 1
      end
    end
  done

(* Counting sort of the hits into the buckets of slope [a], stable, so
   each bucket lists its bidders ascending (a bidder has one level per
   seed, so at most one hit per bucket). *)
let fill_buckets ~levels ~a s =
  let start = s.start in
  Array.fill start 0 (levels + 1) 0;
  for h = 0 to Array.length s.hit_v - 1 do
    let b = s.hit_level.(h) - ((a * s.hit_v.(h)) mod levels) in
    let b = if b < 0 then b + levels else b in
    s.hit_bucket.(h) <- b;
    start.(b + 1) <- start.(b + 1) + 1
  done;
  for b = 1 to levels do
    start.(b) <- start.(b) + start.(b - 1)
  done;
  Array.blit start 0 s.cursor 0 levels;
  for h = 0 to Array.length s.hit_v - 1 do
    let b = s.hit_bucket.(h) in
    s.by_bucket.(s.cursor.(b)) <- h;
    s.cursor.(b) <- s.cursor.(b) + 1
  done

(* The active bidders of seed (slope, b): bucket b. *)
let draw_bucket s b =
  let lo = s.start.(b) in
  let n_act = s.start.(b + 1) - lo in
  for e = 0 to n_act - 1 do
    let h = s.by_bucket.(lo + e) in
    let v = s.hit_v.(h) in
    s.t.(v) <- s.hit_bundle.(h);
    s.tval.(v) <- s.hit_value.(h);
    s.act.(e) <- v
  done;
  s.n_act <- n_act

(* The resolution stage of the conflict structure on the last draw of
   [s], and the welfare of its survivors. *)
let resolve_side p s =
  let inst = p.inst in
  let pi = inst.Instance.ordering in
  s.n_surv <-
    (match inst.Instance.conflict with
    | Instance.Unweighted g -> resolve_unweighted_into pi g p.mask s.t s.act s.n_act s.surv
    | Instance.Edge_weighted _ -> resolve_partial_into pi p.wt s.t s.act s.n_act s.surv
    | Instance.Per_channel _ | Instance.Per_channel_weighted _ ->
        invalid_arg "Rounding.plan_round_seed: unweighted/edge-weighted instances only");
  s.value <- value_of s.tval s.surv s.n_surv

(* The more valuable side (the small one on ties) is the result. *)
let choose_side p =
  let small = p.sides.(0) and large = p.sides.(1) in
  let s = if small.value >= large.value then small else large in
  p.res_t <- s.t;
  p.res_tval <- s.tval;
  p.res_ids <- s.surv;
  p.res_len <- s.n_surv;
  s.value

(* One randomized pass of Algorithm 1 or 2 at [scale_down]: the large
   side draws first, then the small one (that order fixes which PRNG
   draws each side gets), each is resolved, and the more valuable side is
   the result.  Returns its welfare. *)
let round_trial g p ~scale_down =
  for i = Array.length p.sides - 1 downto 0 do
    draw g p.sides.(i) ~scale_down;
    resolve_side p p.sides.(i)
  done;
  choose_side p

let plan_slope p ~a =
  if a < 0 || a >= p.levels then invalid_arg "Rounding.plan_slope: a outside [0, levels)";
  Array.iter (fill_buckets ~levels:p.levels ~a) p.sides;
  p.slope <- a

let plan_round_seed p ~b =
  if p.slope < 0 then invalid_arg "Rounding.plan_round_seed: no plan_slope";
  if b < 0 || b >= p.levels then invalid_arg "Rounding.plan_round_seed: b outside [0, levels)";
  for i = 0 to Array.length p.sides - 1 do
    draw_bucket p.sides.(i) b;
    resolve_side p p.sides.(i)
  done;
  choose_side p

let plan_algorithm3 p =
  (match require_conflict p.inst `Weighted "Rounding.plan_algorithm3" with
  | `W _ -> ()
  | `G _ | `P _ | `PW _ -> assert false);
  if p.res_ids == p.sc.kept then
    invalid_arg "Rounding.plan_algorithm3: no plan_round_seed since the last call";
  let value =
    algorithm3_into p.inst.Instance.ordering p.wt p.res_tval p.sc p.res_t p.res_ids p.res_len
  in
  p.res_ids <- p.sc.kept;
  p.res_len <- p.sc.n_kept;
  value

let plan_result p = materialize (Instance.n p.inst) p.res_t p.res_ids p.res_len

(* A plan for randomized trials only: they pass their scale per draw, and
   without levels the plan's own scale is never read. *)
let trial_plan inst frac = plan inst frac ~scale_down:1.0

(* The per-channel tiers' tentative allocation: a draw of the plan's one
   side. *)
let draw_tentative g p ~scale_down =
  let s = p.sides.(0) in
  draw g s ~scale_down;
  materialize (Instance.n p.inst) s.t s.act s.n_act

(* Algorithm 1's or 2's output: one randomized pass on a fresh plan. *)
let round_once g_rng inst frac ~scale_down =
  let p = trial_plan inst frac in
  ignore (round_trial g_rng p ~scale_down);
  plan_result p

(* ------------------------------------------------------------------ *)
(* Algorithm 1: unweighted conflict graphs.                            *)

let algorithm1_scaled g_rng inst frac ~scale_down =
  (match require_conflict inst `Unweighted "Rounding.algorithm1" with
  | `G _ -> ()
  | `W _ | `P _ | `PW _ -> assert false);
  round_once g_rng inst frac ~scale_down

let algorithm1 g_rng inst frac =
  let k = float_of_int inst.Instance.k in
  algorithm1_scaled g_rng inst frac ~scale_down:(2.0 *. sqrt k *. inst.Instance.rho)

(* ------------------------------------------------------------------ *)
(* Algorithm 2: edge-weighted graphs, partly feasible output.          *)

let algorithm2_scaled g_rng inst frac ~scale_down =
  (match require_conflict inst `Weighted "Rounding.algorithm2" with
  | `W _ -> ()
  | `G _ | `P _ | `PW _ -> assert false);
  round_once g_rng inst frac ~scale_down

let algorithm2 g_rng inst frac =
  let k = float_of_int inst.Instance.k in
  algorithm2_scaled g_rng inst frac ~scale_down:(4.0 *. sqrt k *. inst.Instance.rho)

let is_partly_feasible inst alloc =
  match inst.Instance.conflict with
  | Instance.Edge_weighted wg ->
      let act, n_act = active_of alloc in
      let wt = wtable_of wg act n_act in
      let pi = inst.Instance.ordering in
      let ok = ref true in
      for i = 0 to n_act - 1 do
        if condition5_fails pi wt alloc act n_act act.(i) then ok := false
      done;
      !ok
  | Instance.Unweighted _ | Instance.Per_channel _ | Instance.Per_channel_weighted _
    ->
      invalid_arg "Rounding.is_partly_feasible: edge-weighted instances only"

(* ------------------------------------------------------------------ *)
(* Algorithm 3: decompose a partly feasible allocation into <= log n   *)
(* feasible candidates, keep the best.                                 *)

let algorithm3 inst alloc =
  let wg = match require_conflict inst `Weighted "Rounding.algorithm3" with
    | `W wg -> wg
    | `G _ | `P _ | `PW _ -> assert false
  in
  let n = Instance.n inst in
  let ids, len = active_of alloc in
  let wt = wtable_of wg ids len in
  let tval = values_of inst alloc ids len in
  let sc = scratch n in
  ignore (algorithm3_into inst.Instance.ordering wt tval sc alloc ids len);
  materialize n alloc sc.kept sc.n_kept

(* ------------------------------------------------------------------ *)
(* Asymmetric channels (Section 6): scaling 1/2kρ, per-channel graphs. *)

let resolve_asymmetric inst graphs t =
  let n = Instance.n inst in
  let k = inst.Instance.k in
  let pi = inst.Instance.ordering in
  let final = Array.copy t in
  (* per-channel masks of tentative holders: "some earlier neighbour holds
     channel j" becomes one row ∧ mask scan in G_j *)
  let holders = Array.init k (fun j -> Graph.mask_create graphs.(j)) in
  for u = 0 to n - 1 do
    Bundle.iter (fun j -> Bitset.add holders.(j) u) t.(u)
  done;
  for v = 0 to n - 1 do
    if not (Bundle.is_empty t.(v)) then begin
      let conflicted =
        Bundle.fold
          (fun j acc ->
            acc
            || Graph.exists_row_inter graphs.(j) v holders.(j) (fun u ->
                   Ordering.precedes pi u v))
          t.(v) false
      in
      if conflicted then final.(v) <- Bundle.empty
    end
  done;
  final

let algorithm_asymmetric_scaled g_rng inst frac ~scale_down =
  let graphs = match require_conflict inst `Per_channel "Rounding.algorithm_asymmetric" with
    | `P gs -> gs
    | `G _ | `W _ | `PW _ -> assert false
  in
  resolve_asymmetric inst graphs (draw_tentative g_rng (trial_plan inst frac) ~scale_down)

let algorithm_asymmetric g_rng inst frac =
  let k = float_of_int inst.Instance.k in
  algorithm_asymmetric_scaled g_rng inst frac
    ~scale_down:(2.0 *. k *. inst.Instance.rho)

(* ------------------------------------------------------------------ *)
(* Weighted asymmetric channels: per-channel weight functions w_j      *)
(* (Section 6, full generality).  The rounding scales by 1/4kρ; the    *)
(* partial resolution enforces the Condition-(5) analogue per channel, *)
(* and a per-channel Algorithm-3 pass makes the result feasible.       *)

(* Channel-j interference into v from tentatively allocated backward
   vertices sharing channel j. *)
let backward_channel_mass inst wgs alloc v j =
  let pi = inst.Instance.ordering in
  let total = ref 0.0 in
  for u = 0 to Instance.n inst - 1 do
    if u <> v && Ordering.precedes pi u v && Bundle.mem j alloc.(u) then
      total := !total +. Weighted.wbar wgs.(j) u v
  done;
  !total

let resolve_partial_asymmetric inst wgs t =
  let n = Instance.n inst in
  let final = Array.copy t in
  for v = 0 to n - 1 do
    if not (Bundle.is_empty t.(v)) then begin
      let violated =
        Bundle.fold
          (fun j acc -> acc || backward_channel_mass inst wgs t v j >= 0.5)
          t.(v) false
      in
      if violated then final.(v) <- Bundle.empty
    end
  done;
  final

let algorithm_asymmetric_weighted_scaled g_rng inst frac ~scale_down =
  let wgs =
    match require_conflict inst `Per_channel_weighted "Rounding.algorithm_asymmetric_weighted" with
    | `PW wgs -> wgs
    | `G _ | `W _ | `P _ -> assert false
  in
  resolve_partial_asymmetric inst wgs (draw_tentative g_rng (trial_plan inst frac) ~scale_down)

let algorithm_asymmetric_weighted g_rng inst frac =
  let k = float_of_int inst.Instance.k in
  algorithm_asymmetric_weighted_scaled g_rng inst frac
    ~scale_down:(4.0 *. k *. inst.Instance.rho)

(* Algorithm-3 analogue for per-channel weights: vertices by decreasing
   rank; a vertex is dropped when some channel it holds receives incoming
   interference >= 1 from the vertices still present. *)
let algorithm3_asymmetric inst alloc =
  let wgs =
    match require_conflict inst `Per_channel_weighted "Rounding.algorithm3_asymmetric" with
    | `PW wgs -> wgs
    | `G _ | `W _ | `P _ -> assert false
  in
  let n = Instance.n inst in
  let pi = inst.Instance.ordering in
  let by_rank_desc = List.init n (fun pos -> Ordering.vertex_at pi (n - 1 - pos)) in
  let incoming si v j =
    let total = ref 0.0 in
    for u = 0 to n - 1 do
      if u <> v && Bundle.mem j si.(u) then total := !total +. Weighted.wbar wgs.(j) u v
    done;
    !total
  in
  let best = ref (Allocation.empty n) in
  let remaining = ref (Allocation.allocated_bidders alloc) in
  let continue_ = ref (!remaining <> []) in
  while !continue_ do
    let si = Allocation.empty n in
    List.iter (fun v -> si.(v) <- alloc.(v)) !remaining;
    let removed = ref [] in
    List.iter
      (fun v ->
        if not (Bundle.is_empty si.(v)) then begin
          let violated =
            Bundle.fold (fun j acc -> acc || incoming si v j >= 1.0) si.(v) false
          in
          if violated then begin
            si.(v) <- Bundle.empty;
            removed := v :: !removed
          end
        end)
      by_rank_desc;
    best := better inst !best si;
    if !removed = [] || List.length !removed >= List.length !remaining then
      continue_ := false
    else remaining := !removed
  done;
  !best

(* ------------------------------------------------------------------ *)
(* Best-of-trials over one plan.                                       *)

(* The tier [solve] runs on [inst]'s conflict structure, over one plan:
   its canonical scale, [trial g ~scale_down], which makes one feasible
   pass and returns its welfare, and [result ()], a copy of the last
   pass's allocation. *)
let tier inst frac =
  let p = trial_plan inst frac in
  let k = float_of_int inst.Instance.k in
  let rho = inst.Instance.rho in
  let copy () = plan_result p in
  match inst.Instance.conflict with
  | Instance.Unweighted _ ->
      (2.0 *. sqrt k *. rho, (fun g ~scale_down -> round_trial g p ~scale_down), copy)
  | Instance.Edge_weighted _ ->
      ( 4.0 *. sqrt k *. rho,
        (fun g ~scale_down ->
          ignore (round_trial g p ~scale_down);
          plan_algorithm3 p),
        copy )
  | Instance.Per_channel gs ->
      let last = ref [||] in
      ( 2.0 *. k *. rho,
        (fun g ~scale_down ->
          last := resolve_asymmetric inst gs (draw_tentative g p ~scale_down);
          Allocation.value inst !last),
        fun () -> !last )
  | Instance.Per_channel_weighted wgs ->
      let last = ref [||] in
      ( 4.0 *. k *. rho,
        (fun g ~scale_down ->
          last :=
            algorithm3_asymmetric inst
              (resolve_partial_asymmetric inst wgs (draw_tentative g p ~scale_down));
          Allocation.value inst !last),
        fun () -> !last )

(* One more trial into the running best: only a pass worth strictly more
   than the best so far is copied out. *)
let improve trial result g ~scale_down best best_value =
  Tel.incr m_trials;
  let value = trial g ~scale_down in
  if value > !best_value then begin
    Tel.incr m_improvements;
    best_value := value;
    best := result ()
  end

let solve ?(trials = 8) g_rng inst frac =
  if trials < 1 then invalid_arg "Rounding.solve: trials must be >= 1";
  let scale_down, trial, result = tier inst frac in
  Tel.incr m_trials;
  let best_value = ref (trial g_rng ~scale_down) in
  let best = ref (result ()) in
  for _ = 2 to trials do
    improve trial result g_rng ~scale_down best best_value
  done;
  !best

(* Parallel best-of-[trials]: one independent PRNG stream per *trial*
   (never per domain), merged in fixed index order, so the result is a
   deterministic function of [seed] alone — running with 1 or N domains
   returns byte-identical allocations.  Plans are mutable, so each trial
   builds its own. *)
let solve_par ?(domains = Pool.default_domains) ?chunk ?(trials = 8) ~seed inst frac =
  if trials < 1 then invalid_arg "Rounding.solve_par: trials must be >= 1";
  let one t =
    let g_rng = Prng.create ~seed:(seed + (7919 * (t + 1))) in
    Tel.incr m_trials;
    let scale_down, trial, result = tier inst frac in
    let value = trial g_rng ~scale_down in
    (value, result ())
  in
  let cands = Pool.map_array ~domains ?chunk one (Array.init trials Fun.id) in
  let best = ref cands.(0) in
  for t = 1 to trials - 1 do
    if fst cands.(t) > fst !best then begin
      Tel.incr m_improvements;
      best := cands.(t)
    end
  done;
  snd !best

(* Adaptive-scale rounding.  The conflict-resolution stages enforce
   feasibility (resp. Condition (5)) for ANY rounding scale; only the
   expectation analysis needs the canonical scale.  Trying a geometric
   ladder of more aggressive scales — the canonical one included — keeps
   the worst-case guarantee while often allocating far more in practice. *)
let scale_ladder canonical =
  let rec go s acc = if s <= 1.0 then 1.0 :: acc else go (s /. 2.0) (s :: acc) in
  go canonical []

let solve_adaptive ?(trials = 4) g_rng inst frac =
  if trials < 1 then invalid_arg "Rounding.solve_adaptive: trials must be >= 1";
  let canonical, trial, result = tier inst frac in
  (* the empty allocation is worth +0 *)
  let best = ref (Allocation.empty (Instance.n inst)) in
  let best_value = ref 0.0 in
  List.iter
    (fun scale_down ->
      for _ = 1 to trials do
        improve trial result g_rng ~scale_down best best_value
      done)
    (scale_ladder canonical);
  !best

let guarantee inst =
  let k = float_of_int inst.Instance.k in
  let rho = inst.Instance.rho in
  match inst.Instance.conflict with
  | Instance.Unweighted _ -> 8.0 *. sqrt k *. rho
  | Instance.Edge_weighted _ ->
      16.0 *. sqrt k *. rho *. Floats.log2n (Instance.n inst)
  | Instance.Per_channel _ -> 4.0 *. k *. rho
  | Instance.Per_channel_weighted _ ->
      16.0 *. k *. rho *. Floats.log2n (Instance.n inst)
