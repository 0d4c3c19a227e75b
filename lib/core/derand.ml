let prime = 101

let m_candidates = Sa_telemetry.Metrics.counter "core.derand.candidates"
let h_derand = Sa_telemetry.Metrics.histogram "core.derand.seconds"

(* h_{a,b}(v) = ((a*v + b) mod p) / p — the affine [0,1) family.  The
   enumeration makes p² passes of one per-job rounding plan built with
   [~levels:p]: per slope a the plan buckets its per-level picks by b, a
   candidate resolves the bidders of its bucket, and only a new best
   allocation is copied out. *)
let hash ~a ~b v = ((a * v) + b) mod prime

(* Keeps the running best's value; [>=] keeps the earlier candidate on
   ties, as [better] on the allocations would. *)
let enumerate inst frac ~scale_down round =
  Sa_telemetry.Trace.with_span ~hist:h_derand "core.derand" @@ fun () ->
  let plan = Rounding.plan ~levels:prime inst frac ~scale_down in
  let best = ref (Allocation.empty (Instance.n inst)) in
  let best_value = ref 0.0 in
  for a = 0 to prime - 1 do
    Rounding.plan_slope plan ~a;
    for b = 0 to prime - 1 do
      Sa_telemetry.Metrics.incr m_candidates;
      let value = round plan b in
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
  enumerate inst frac ~scale_down (fun plan b ->
      Rounding.plan_round_seed plan ~b)

let algorithm23_derand inst frac =
  (match inst.Instance.conflict with
  | Instance.Edge_weighted _ -> ()
  | Instance.Unweighted _ | Instance.Per_channel _ | Instance.Per_channel_weighted _ ->
      invalid_arg "Derand.algorithm23_derand: edge-weighted instances only");
  let k = float_of_int inst.Instance.k in
  let scale_down = 4.0 *. sqrt k *. inst.Instance.rho in
  enumerate inst frac ~scale_down (fun plan b ->
      ignore (Rounding.plan_round_seed plan ~b);
      Rounding.plan_algorithm3 plan)
