module Weighted = Sa_graph.Weighted
module Ordering = Sa_graph.Ordering
module Metric = Sa_geom.Metric
module Spatial = Sa_geom.Spatial

(* epsilon = beta/2 * min_{i, j<>i} (d_i / d(s_j, r_i))^alpha.  For fixed i
   the minimum is attained at the sender farthest from r_i, so on Euclidean
   metrics a farthest-point grid query per receiver replaces the inner loop
   (x -> x^alpha is monotone, alpha > 0). *)
let prop11_epsilon sys prm =
  let n = Link.n sys in
  let alpha = prm.Sinr.alpha in
  let best = ref infinity in
  (match Metric.points (Link.metric sys) with
  | Some pts when n > 1 ->
      let senders = Array.init n (fun j -> pts.((Link.link sys j).Link.sender)) in
      let sp = Spatial.create senders in
      for i = 0 to n - 1 do
        let ri = pts.((Link.link sys i).Link.receiver) in
        match Spatial.farthest_from sp ~excluding:i ri with
        | None -> ()
        | Some (_, dmax) ->
            let di = Link.length sys i in
            let ratio = (di /. dmax) ** alpha in
            if ratio < !best then best := ratio
      done
  | _ ->
      for i = 0 to n - 1 do
        let di = Link.length sys i in
        for j = 0 to n - 1 do
          if i <> j then begin
            let d_sj_ri = Link.dist_sr sys ~from_sender_of:j ~to_receiver_of:i in
            let ratio = (di /. d_sj_ri) ** alpha in
            if ratio < !best then best := ratio
          end
        done
      done);
  if !best = infinity then prm.Sinr.beta /. 2.0 else prm.Sinr.beta /. 2.0 *. !best

let prop11_graph sys prm ~powers =
  Sinr.validate_params prm;
  let n = Link.n sys in
  let eps = prop11_epsilon sys prm in
  let beta' = prm.Sinr.beta /. (1.0 +. eps) in
  Weighted.of_function n (fun j i ->
      (* weight of ℓ' = j into ℓ = i *)
      let signal_i = powers.(i) /. (Link.length sys i ** prm.Sinr.alpha) in
      let budget = signal_i -. (beta' *. prm.Sinr.noise) in
      if budget <= 0.0 then 1.0
      else
        let recv = Sinr.received sys prm ~powers ~from_link:j ~at_receiver_of:i in
        Float.min 1.0 (beta' *. recv /. budget))

let ordering sys = Link.ordering_by_length ~decreasing:true sys

let tau prm =
  1.0 /. (2.0 *. (3.0 ** prm.Sinr.alpha) *. ((4.0 *. prm.Sinr.beta) +. 2.0))

(* The thm13 weight of longer link l onto shorter link l'. *)
let thm13_weight sys ~alpha ~scale l l' =
  let dl = Link.length sys l ** alpha in
  let d_s_r' = Link.dist_sr sys ~from_sender_of:l ~to_receiver_of:l' in
  let d_s'_r = Link.dist_sr sys ~from_sender_of:l' ~to_receiver_of:l in
  let term1 = Float.min 1.0 (dl /. (d_s_r' ** alpha)) in
  let term2 = Float.min 1.0 (dl /. (d_s'_r ** alpha)) in
  scale *. (term1 +. term2)

let thm13_graph ?weight_scale sys prm =
  Sinr.validate_params prm;
  let scale = match weight_scale with Some s -> s | None -> 1.0 /. tau prm in
  if scale <= 0.0 then invalid_arg "Sinr_graph.thm13_graph: scale must be positive";
  let n = Link.n sys in
  let pi = ordering sys in
  let alpha = prm.Sinr.alpha in
  Weighted.of_function n (fun l l' ->
      if not (Ordering.precedes pi l l') then 0.0
      else thm13_weight sys ~alpha ~scale l l')

let sinr_iff_independent sys prm ~powers set =
  let wg = prop11_graph sys prm ~powers in
  (Sinr.feasible sys prm ~powers set, Weighted.is_independent wg set)
