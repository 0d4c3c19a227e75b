let prime = 101

let m_candidates = Sa_telemetry.Metrics.counter "core.derand.candidates"

(* h_{a,b}(v) = ((a*v + b) mod p) / p — the affine [0,1) family.  The
   enumeration makes p² passes of one per-job rounding plan: a candidate
   writes the uniforms of the plan's bidders into one per-job buffer, and
   only a new best allocation is copied out. *)
let hash ~a ~b v = ((a * v) + b) mod prime

(* Keeps the running best's value; [>=] keeps the earlier candidate on
   ties, as [better] on the allocations would. *)
let enumerate inst plan round =
  let n = Instance.n inst in
  let bidders = Rounding.plan_bidders plan in
  let uniforms = Array.make n 0.0 in
  let best = ref (Allocation.empty n) in
  let best_value = ref 0.0 in
  for a = 0 to prime - 1 do
    for b = 0 to prime - 1 do
      Sa_telemetry.Metrics.incr m_candidates;
      for i = 0 to Array.length bidders - 1 do
        let v = bidders.(i) in
        uniforms.(v) <- float_of_int (hash ~a ~b v) /. float_of_int prime
      done;
      let value = round plan uniforms in
      if not (!best_value >= value) then begin
        best := Rounding.plan_result plan;
        best_value := value
      end
    done
  done;
  !best

let algorithm1_derand inst frac =
  (match inst.Instance.conflict with
  | Instance.Unweighted _ -> ()
  | Instance.Edge_weighted _ | Instance.Per_channel _ | Instance.Per_channel_weighted _ ->
      invalid_arg "Derand.algorithm1_derand: unweighted instances only");
  let k = float_of_int inst.Instance.k in
  let scale_down = 2.0 *. sqrt k *. inst.Instance.rho in
  enumerate inst (Rounding.plan inst frac ~scale_down) Rounding.plan_round

let algorithm23_derand inst frac =
  (match inst.Instance.conflict with
  | Instance.Edge_weighted _ -> ()
  | Instance.Unweighted _ | Instance.Per_channel _ | Instance.Per_channel_weighted _ ->
      invalid_arg "Derand.algorithm23_derand: edge-weighted instances only");
  let k = float_of_int inst.Instance.k in
  let scale_down = 4.0 *. sqrt k *. inst.Instance.rho in
  enumerate inst (Rounding.plan inst frac ~scale_down) (fun plan uniforms ->
      ignore (Rounding.plan_round plan uniforms);
      Rounding.plan_algorithm3 plan)
