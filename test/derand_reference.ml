(* Reference for the rounding plans: the derandomization's per-candidate
   enumeration as it was before the per-job rounding plan, and the
   randomized tiers ([solve], [solve_adaptive], [solve_par] and the
   Algorithm-1/2 and per-channel [_scaled] bodies) as they were before
   they ran on one plan per call, kept verbatim apart from the module
   aliases below.  Every (a, b) runs a full [round_with_uniforms] and
   every trial a full [tentative] (by-bidder columns, size split, a fresh
   tentative array, conflict sums over all n bidders), and [better] and
   the trial loops compare whole-allocation [Allocation.value]s.  The
   production [Derand] and tiers must return the same bundles with the
   same value bits, and the tiers must leave the PRNG in the same state
   and move [core.rounding.trials]/[core.rounding.improvements] by the
   same amounts; [test/suite_derand.ml] checks that.  Four departures
   from the old text: per-channel instances (never derandomized) are left
   out of [round_with_uniforms]; the uniforms live in a fresh array
   instead of a [Sa_lp.Workspace] slot; the reference does not bump the
   [core.derand.candidates] counter, so a test can watch the production
   enumeration alone; and [tentative] draws its categorical from a fresh
   exact-length weights array instead of a prefix of Workspace float
   slot 24, which gives the same draw bitwise ({!Sa_util.Prng.categorical}
   sums the same entries in the same order). *)

module Bundle = Sa_val.Bundle
module Ordering = Sa_graph.Ordering
module Graph = Sa_graph.Graph
module Bitset = Sa_graph.Bitset
module Weighted = Sa_graph.Weighted
module Instance = Sa_core.Instance
module Allocation = Sa_core.Allocation
module Lp_relaxation = Sa_core.Lp_relaxation
module Prng = Sa_util.Prng

(* ---- from rounding.ml ---------------------------------------------------- *)

(* Rounding stage shared by all variants: every bidder independently picks
   bundle T with probability x_{v,T} / scale_down, and the empty bundle with
   the remaining probability. *)
let tentative g ~scale_down per_bidder =
  Array.map
    (fun cols ->
      let total = List.fold_left (fun acc (_, x) -> acc +. x) 0.0 cols in
      let p_any = total /. scale_down in
      if p_any > 0.0 && Prng.bernoulli g p_any then begin
        let weights = Array.of_list (List.map snd cols) in
        fst (List.nth cols (Prng.categorical g weights))
      end
      else Bundle.empty)
    per_bidder

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

let resolve_unweighted inst g tentative_alloc =
  let n = Instance.n inst in
  let pi = inst.Instance.ordering in
  let final = Array.copy tentative_alloc in
  (* bidders with a non-empty tentative bundle, as a word-packed mask: the
     per-vertex conflict check scans only the set bits of row ∧ mask *)
  let active = Graph.mask_create g in
  for v = 0 to n - 1 do
    if not (Bundle.is_empty tentative_alloc.(v)) then Bitset.add active v
  done;
  for v = 0 to n - 1 do
    if not (Bundle.is_empty tentative_alloc.(v)) then begin
      let conflicted =
        Graph.exists_row_inter g v active (fun u ->
            Ordering.precedes pi u v
            && Bundle.intersects tentative_alloc.(u) tentative_alloc.(v))
      in
      if conflicted then final.(v) <- Bundle.empty
    end
  done;
  final

let algorithm1_scaled g_rng inst frac ~scale_down =
  let graph = match require_conflict inst `Unweighted "Rounding.algorithm1" with
    | `G g -> g
    | `W _ | `P _ | `PW _ -> assert false
  in
  let n = Instance.n inst in
  let k = float_of_int inst.Instance.k in
  let per_bidder = Lp_relaxation.by_bidder frac ~n in
  let small, large = split_by_size per_bidder ~threshold:(sqrt k) in
  let run cols =
    let t = tentative g_rng ~scale_down cols in
    resolve_unweighted inst graph t
  in
  better inst (run small) (run large)

let algorithm1 g_rng inst frac =
  let k = float_of_int inst.Instance.k in
  algorithm1_scaled g_rng inst frac ~scale_down:(2.0 *. sqrt k *. inst.Instance.rho)

let backward_shared_mass inst wg alloc v =
  let pi = inst.Instance.ordering in
  let total = ref 0.0 in
  for u = 0 to Instance.n inst - 1 do
    if
      u <> v
      && Ordering.precedes pi u v
      && Bundle.intersects alloc.(u) alloc.(v)
    then total := !total +. Weighted.wbar wg u v
  done;
  !total

let resolve_partial inst wg tentative_alloc =
  let n = Instance.n inst in
  let final = Array.copy tentative_alloc in
  for v = 0 to n - 1 do
    if not (Bundle.is_empty tentative_alloc.(v)) then
      if backward_shared_mass inst wg tentative_alloc v >= 0.5 then
        final.(v) <- Bundle.empty
  done;
  final

let algorithm2_scaled g_rng inst frac ~scale_down =
  let wg = match require_conflict inst `Weighted "Rounding.algorithm2" with
    | `W wg -> wg
    | `G _ | `P _ | `PW _ -> assert false
  in
  let n = Instance.n inst in
  let k = float_of_int inst.Instance.k in
  let per_bidder = Lp_relaxation.by_bidder frac ~n in
  let small, large = split_by_size per_bidder ~threshold:(sqrt k) in
  let run cols =
    let t = tentative g_rng ~scale_down cols in
    resolve_partial inst wg t
  in
  better inst (run small) (run large)

let algorithm2 g_rng inst frac =
  let k = float_of_int inst.Instance.k in
  algorithm2_scaled g_rng inst frac ~scale_down:(4.0 *. sqrt k *. inst.Instance.rho)

let is_partly_feasible inst alloc =
  match inst.Instance.conflict with
  | Instance.Edge_weighted wg ->
      let ok = ref true in
      Array.iteri
        (fun v bundle ->
          if not (Bundle.is_empty bundle) then
            if backward_shared_mass inst wg alloc v >= 0.5 then ok := false)
        alloc;
      !ok
  | Instance.Unweighted _ | Instance.Per_channel _ | Instance.Per_channel_weighted _
    ->
      invalid_arg "Rounding.is_partly_feasible: edge-weighted instances only"


let algorithm3 inst alloc =
  let wg = match require_conflict inst `Weighted "Rounding.algorithm3" with
    | `W wg -> wg
    | `G _ | `P _ | `PW _ -> assert false
  in
  let n = Instance.n inst in
  let pi = inst.Instance.ordering in
  let by_rank_desc =
    List.init n (fun pos -> Ordering.vertex_at pi (n - 1 - pos))
  in
  let best = ref (Allocation.empty n) in
  let remaining = ref (Allocation.allocated_bidders alloc) in
  let continue_ = ref (!remaining <> []) in
  while !continue_ do
    (* Candidate S_i: the vertices removed from every previous pass. *)
    let si = Allocation.empty n in
    List.iter (fun v -> si.(v) <- alloc.(v)) !remaining;
    let removed = ref [] in
    (* Full conflict resolution by decreasing rank: a vertex is dropped when
       its incoming interference from vertices still present reaches 1. *)
    List.iter
      (fun v ->
        if not (Bundle.is_empty si.(v)) then begin
          let incoming = ref 0.0 in
          for u = 0 to n - 1 do
            if u <> v && Bundle.intersects si.(u) si.(v) then
              incoming := !incoming +. Weighted.wbar wg u v
          done;
          if !incoming >= 1.0 then begin
            si.(v) <- Bundle.empty;
            removed := v :: !removed
          end
        end)
      by_rank_desc;
    best := better inst !best si;
    if !removed = [] || List.length !removed >= List.length !remaining then
      continue_ := false
    else remaining := !removed;
    if !removed = [] then continue_ := false
  done;
  !best

(* Deterministic rounding pass from explicit per-bidder uniforms (used by
   the pairwise-independence derandomization in [Derand]).  The bidder's
   bundle is picked by inverse-CDF over its columns scaled by
   [1/scale_down]. *)
let tentative_from_uniforms ~scale_down per_bidder uniforms =
  Array.mapi
    (fun v cols ->
      let u = uniforms.(v) in
      let rec pick acc = function
        | [] -> Bundle.empty
        | (bundle, x) :: rest ->
            let acc' = acc +. (x /. scale_down) in
            if u < acc' then bundle else pick acc' rest
      in
      pick 0.0 cols)
    per_bidder

let round_with_uniforms inst frac ~scale_down ~uniforms =
  if Array.length uniforms < Instance.n inst then
    invalid_arg "Rounding.round_with_uniforms: uniforms shorter than n";
  let n = Instance.n inst in
  let k = float_of_int inst.Instance.k in
  let per_bidder = Lp_relaxation.by_bidder frac ~n in
  match inst.Instance.conflict with
  | Instance.Unweighted g ->
      let small, large = split_by_size per_bidder ~threshold:(sqrt k) in
      let run cols =
        resolve_unweighted inst g (tentative_from_uniforms ~scale_down cols uniforms)
      in
      better inst (run small) (run large)
  | Instance.Edge_weighted wg ->
      let small, large = split_by_size per_bidder ~threshold:(sqrt k) in
      let run cols =
        resolve_partial inst wg (tentative_from_uniforms ~scale_down cols uniforms)
      in
      better inst (run small) (run large)
  | Instance.Per_channel _ | Instance.Per_channel_weighted _ ->
      invalid_arg "Derand_reference.round_with_uniforms: per-channel instances"

(* ---- from rounding.ml: the randomized tiers ------------------------------ *)

module Pool = Sa_core.Pool
module Tel = Sa_telemetry.Metrics

let m_trials = Tel.counter "core.rounding.trials"
let m_improvements = Tel.counter "core.rounding.improvements"

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
  let n = Instance.n inst in
  let per_bidder = Lp_relaxation.by_bidder frac ~n in
  let t = tentative g_rng ~scale_down per_bidder in
  resolve_asymmetric inst graphs t

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
  let n = Instance.n inst in
  let per_bidder = Lp_relaxation.by_bidder frac ~n in
  let t = tentative g_rng ~scale_down per_bidder in
  resolve_partial_asymmetric inst wgs t

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

let solve ?(trials = 8) g_rng inst frac =
  if trials < 1 then invalid_arg "Rounding.solve: trials must be >= 1";
  let one () =
    match inst.Instance.conflict with
    | Instance.Unweighted _ -> algorithm1 g_rng inst frac
    | Instance.Edge_weighted _ -> algorithm3 inst (algorithm2 g_rng inst frac)
    | Instance.Per_channel _ -> algorithm_asymmetric g_rng inst frac
    | Instance.Per_channel_weighted _ ->
        algorithm3_asymmetric inst (algorithm_asymmetric_weighted g_rng inst frac)
  in
  Tel.incr m_trials;
  let best = ref (one ()) in
  for _ = 2 to trials do
    Tel.incr m_trials;
    let cand = one () in
    if Allocation.value inst cand > Allocation.value inst !best then begin
      Tel.incr m_improvements;
      best := cand
    end
  done;
  !best

(* Parallel best-of-[trials]: one independent PRNG stream per *trial*
   (never per domain), merged in fixed index order, so the result is a
   deterministic function of [seed] alone — running with 1 or N domains
   returns byte-identical allocations. *)
let solve_par ?(domains = Pool.default_domains) ?chunk ?(trials = 8) ~seed inst frac =
  if trials < 1 then invalid_arg "Rounding.solve_par: trials must be >= 1";
  let one t =
    let g_rng = Prng.create ~seed:(seed + (7919 * (t + 1))) in
    Tel.incr m_trials;
    match inst.Instance.conflict with
    | Instance.Unweighted _ -> algorithm1 g_rng inst frac
    | Instance.Edge_weighted _ -> algorithm3 inst (algorithm2 g_rng inst frac)
    | Instance.Per_channel _ -> algorithm_asymmetric g_rng inst frac
    | Instance.Per_channel_weighted _ ->
        algorithm3_asymmetric inst (algorithm_asymmetric_weighted g_rng inst frac)
  in
  let cands = Pool.map_array ~domains ?chunk one (Array.init trials Fun.id) in
  let best = ref cands.(0) in
  for t = 1 to trials - 1 do
    if Allocation.value inst cands.(t) > Allocation.value inst !best then begin
      Tel.incr m_improvements;
      best := cands.(t)
    end
  done;
  !best

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
  let k = float_of_int inst.Instance.k in
  let rho = inst.Instance.rho in
  let canonical, one =
    match inst.Instance.conflict with
    | Instance.Unweighted _ ->
        ( 2.0 *. sqrt k *. rho,
          fun scale_down -> algorithm1_scaled g_rng inst frac ~scale_down )
    | Instance.Edge_weighted _ ->
        ( 4.0 *. sqrt k *. rho,
          fun scale_down ->
            algorithm3 inst (algorithm2_scaled g_rng inst frac ~scale_down) )
    | Instance.Per_channel _ ->
        ( 2.0 *. k *. rho,
          fun scale_down -> algorithm_asymmetric_scaled g_rng inst frac ~scale_down )
    | Instance.Per_channel_weighted _ ->
        ( 4.0 *. k *. rho,
          fun scale_down ->
            algorithm3_asymmetric inst
              (algorithm_asymmetric_weighted_scaled g_rng inst frac ~scale_down) )
  in
  let best = ref (Allocation.empty (Instance.n inst)) in
  List.iter
    (fun scale_down ->
      for _ = 1 to trials do
        Tel.incr m_trials;
        let cand = one scale_down in
        if Allocation.value inst cand > Allocation.value inst !best then begin
          Tel.incr m_improvements;
          best := cand
        end
      done)
    (scale_ladder canonical);
  !best

(* ---- from derand.ml ------------------------------------------------------ *)

let prime = 101

(* h_{a,b}(v) = ((a*v + b) mod p) / p, all n uniforms per candidate. *)
let fill_uniforms u ~n a b =
  for v = 0 to n - 1 do
    u.(v) <- float_of_int (((a * v) + b) mod prime) /. float_of_int prime
  done

let enumerate inst round_pass =
  let n = Instance.n inst in
  let uniforms = Array.make (max n 1) 0.0 in
  let best = ref (Allocation.empty n) in
  for a = 0 to prime - 1 do
    for b = 0 to prime - 1 do
      fill_uniforms uniforms ~n a b;
      let alloc = round_pass uniforms in
      best := better inst !best alloc
    done
  done;
  !best

let algorithm1_derand inst frac =
  (match inst.Instance.conflict with
  | Instance.Unweighted _ -> ()
  | Instance.Edge_weighted _ | Instance.Per_channel _ | Instance.Per_channel_weighted _ ->
      invalid_arg "Derand_reference.algorithm1_derand: unweighted instances only");
  let k = float_of_int inst.Instance.k in
  let scale_down = 2.0 *. sqrt k *. inst.Instance.rho in
  enumerate inst (fun uniforms ->
      round_with_uniforms inst frac ~scale_down ~uniforms)

let algorithm23_derand inst frac =
  (match inst.Instance.conflict with
  | Instance.Edge_weighted _ -> ()
  | Instance.Unweighted _ | Instance.Per_channel _ | Instance.Per_channel_weighted _ ->
      invalid_arg "Derand_reference.algorithm23_derand: edge-weighted instances only");
  let k = float_of_int inst.Instance.k in
  let scale_down = 4.0 *. sqrt k *. inst.Instance.rho in
  enumerate inst (fun uniforms ->
      let partly = round_with_uniforms inst frac ~scale_down ~uniforms in
      algorithm3 inst partly)
