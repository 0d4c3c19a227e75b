(* Differential suite for the O(nnz) LP staging code: the neighbourhood
   iterators against their definition, the explicit LP staged from
   backward neighbourhoods against the all-column reference
   (Lp_reference) — same spec, same solve bit for bit — the interference
   feasibility check, and the colgen raw price table against the
   all-vertex sum.  Instances cover every conflict kind, availability masks
   and zeroed bidders. *)

module Prng = Sa_util.Prng
module Bundle = Sa_val.Bundle
module Weighted = Sa_graph.Weighted
module Ordering = Sa_graph.Ordering
module Generators = Sa_graph.Generators
module Model = Sa_lp.Model
module Revised = Sa_lp.Revised
module Workspace = Sa_lp.Workspace
module Instance = Sa_core.Instance
module Lp = Sa_core.Lp_relaxation
module Oracle = Sa_core.Oracle_solver
module Workloads = Sa_exp.Workloads

(* ---------- fixtures ---------------------------------------------------- *)

let kinds =
  [| "disk"; "protocol"; "asymmetric-weighted"; "dense-weighted"; "per-channel";
     "per-channel-weighted" |]

(* Asymmetric weighted graph from random directed entries, some below the
   floor (left at 0), so a vertex's row and column differ. *)
let asymmetric_weighted g ~n ~density =
  let entries = ref [] in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && Prng.float g 1.0 < density then
        entries := (u, v, Prng.uniform_in g 0.01 0.6) :: !entries
    done
  done;
  Weighted_fixture.of_entries ~floor:0.05 n !entries

let random_ordering g n = Ordering.of_order (Prng.permutation g n)

(* One random instance per seed: kind = seed mod 6, then optional
   availability masks (some empty) on half the seeds. *)
let random_instance seed =
  let g = Prng.create ~seed in
  let n = 5 + Prng.int g 12 and k = 1 + Prng.int g 4 in
  let rho = 1.0 +. Prng.float g 2.0 in
  let bidders () = Workloads.bidders g ~n ~k ~profile:Workloads.Mixed in
  let make conflict =
    Instance.make ~conflict ~k ~bidders:(bidders ()) ~ordering:(random_ordering g n)
      ~rho
  in
  let kind = seed mod Array.length kinds in
  let inst =
    match kind with
    | 0 -> Workloads.disk_instance ~seed ~n ~k ~profile:Workloads.Mixed ()
    | 1 -> Workloads.protocol_instance ~seed ~n ~k ~profile:Workloads.Mixed ()
    | 2 -> make (Instance.Edge_weighted (asymmetric_weighted g ~n ~density:0.3))
    | 3 ->
        make
          (Instance.Edge_weighted
             (Generators.random_weighted g ~n ~density:0.3 ~scale:0.6))
    | 4 ->
        make
          (Instance.Per_channel (Array.init k (fun _ -> Generators.gnp g ~n ~p:0.25)))
    | _ ->
        make
          (Instance.Per_channel_weighted
             (Array.init k (fun j ->
                  if j mod 2 = 0 then asymmetric_weighted g ~n ~density:0.25
                  else Generators.random_weighted g ~n ~density:0.25 ~scale:0.6)))
  in
  let inst =
    if Prng.bool g then
      Instance.with_available inst
        (Array.init n (fun _ -> Bundle.of_int (Prng.int g (1 lsl k))))
    else inst
  in
  let zeroed = List.filter (fun _ -> Prng.float g 1.0 < 0.2) (List.init n Fun.id) in
  (kinds.(kind), inst, zeroed, g)

let bits = Int64.bits_of_float

let same_float a b = Int64.equal (bits a) (bits b)

let fail fmt = QCheck.Test.fail_reportf fmt

let seeds = QCheck.(int_range 1 100_000)

(* ---------- neighbourhood iterators -------------------------------------- *)

let collect iter inst v =
  let acc = ref [] in
  iter inst v (fun u -> acc := u :: !acc);
  List.rev !acc

let neighbour_by_definition inst ~before v u =
  let pi = inst.Instance.ordering in
  u <> v
  && (if before then Ordering.precedes pi u v else Ordering.precedes pi v u)
  && List.exists
       (fun channel -> Instance.wbar inst ~channel u v > 0.0)
       (List.init inst.Instance.k Fun.id)

let prop_iterators_match_definition =
  QCheck.Test.make ~count:120
    ~name:"iter_backward/iter_forward = precedes && ∃j w̄>0, ascending" seeds
    (fun seed ->
      let what, inst, _, _ = random_instance seed in
      let n = Instance.n inst in
      let check ~before iter =
        for v = 0 to n - 1 do
          let got = collect iter inst v in
          let want = List.filter (neighbour_by_definition inst ~before v) (List.init n Fun.id) in
          if got <> want then
            fail "%s seed %d: %s neighbours of %d differ" what seed
              (if before then "backward" else "forward")
              v
        done
      in
      check ~before:true Instance.iter_backward;
      check ~before:false Instance.iter_forward;
      true)

let prop_weighted_iter_wbar =
  QCheck.Test.make ~count:60 ~name:"Weighted.iter_wbar: ascending, bitwise wbar" seeds
    (fun seed ->
      let g = Prng.create ~seed in
      let n = 2 + Prng.int g 15 in
      let wg =
        if Prng.bool g then asymmetric_weighted g ~n ~density:0.3
        else Generators.random_weighted g ~n ~density:0.3 ~scale:0.6
      in
      for v = 0 to n - 1 do
        let got = ref [] in
        Weighted.iter_wbar wg v (fun u x -> got := (u, x) :: !got);
        let want =
          List.filter_map
            (fun u ->
              let x = Weighted.wbar wg u v in
              if u <> v && x > 0.0 then Some (u, x) else None)
            (List.init n Fun.id)
        in
        let got = List.rev !got in
        if
          List.length got <> List.length want
          || not
               (List.for_all2
                  (fun (u, x) (u', x') -> u = u' && same_float x x')
                  got want)
        then fail "seed %d: iter_wbar of %d differs" seed v
      done;
      true)

(* ---------- explicit LP staging ------------------------------------------ *)

let same_spec (a : Revised.spec) (b : Revised.spec) =
  let nnz = a.Revised.s_cstart.(a.Revised.s_nstruct) in
  let prefix_eq eq len x y =
    let ok = ref true in
    for i = 0 to len - 1 do
      if not (eq x.(i) y.(i)) then ok := false
    done;
    !ok
  in
  a.Revised.s_direction = b.Revised.s_direction
  && a.Revised.s_nstruct = b.Revised.s_nstruct
  && a.Revised.s_m = b.Revised.s_m
  && a.Revised.s_rel = b.Revised.s_rel
  && prefix_eq same_float a.Revised.s_nstruct a.Revised.s_c b.Revised.s_c
  && prefix_eq same_float a.Revised.s_m a.Revised.s_rhs b.Revised.s_rhs
  && prefix_eq ( = ) (a.Revised.s_nstruct + 1) a.Revised.s_cstart b.Revised.s_cstart
  && prefix_eq ( = ) nnz a.Revised.s_crow b.Revised.s_crow
  && prefix_eq same_float nnz a.Revised.s_cval b.Revised.s_cval

let prop_stage_matches_reference =
  QCheck.Test.make ~count:120 ~name:"staged LP spec = all-column reference, bitwise"
    seeds (fun seed ->
      let what, inst, zeroed, _ = random_instance seed in
      let m, vars = Lp.stage ~zeroed inst in
      let m_ref, vars_ref = Lp_reference.stage ~zeroed inst in
      if vars <> vars_ref then fail "%s seed %d: variable layout differs" what seed;
      if Model.num_rows m <> Model.num_rows m_ref then
        fail "%s seed %d: %d rows vs %d" what seed (Model.num_rows m)
          (Model.num_rows m_ref);
      let spec = Model.to_spec (Workspace.create ()) m in
      let spec_ref = Model.to_spec (Workspace.create ()) m_ref in
      if not (same_spec spec spec_ref) then fail "%s seed %d: specs differ" what seed;
      true)

(* Both models through the revised simplex: every primal value, dual, the
   objective and the pivot count must agree bit for bit; the production
   [solve_explicit_stats] must report the reference's columns. *)
let compare_solves ~what ~seed m m_ref =
  let r = Model.solve_with_basis ~workspace:(Workspace.create ()) m in
  let r_ref = Model.solve_with_basis ~workspace:(Workspace.create ()) m_ref in
  let s = r.Model.solution and s_ref = r_ref.Model.solution in
  if s.Model.status <> s_ref.Model.status then fail "%s seed %d: status differs" what seed;
  if not (same_float s.Model.objective s_ref.Model.objective) then
    fail "%s seed %d: objective %h vs %h" what seed s.Model.objective
      s_ref.Model.objective;
  for var = 0 to Model.num_vars m - 1 do
    if not (same_float (s.Model.value var) (s_ref.Model.value var)) then
      fail "%s seed %d: x.(%d) differs" what seed var
  done;
  for row = 0 to Model.num_rows m - 1 do
    if not (same_float (s.Model.dual row) (s_ref.Model.dual row)) then
      fail "%s seed %d: dual.(%d) differs" what seed row
  done;
  let it = r.Model.stats.Revised.iterations
  and it_ref = r_ref.Model.stats.Revised.iterations in
  if it <> it_ref then fail "%s seed %d: %d pivots vs %d" what seed it it_ref;
  r_ref

(* Both models through the test-side dense tableau: bit for bit the same
   solution. *)
let compare_dense ~what ~seed m m_ref =
  let solve m = Dense_tableau.solve (Dense_tableau.problem_of_model m) in
  let d = solve m and d_ref = solve m_ref in
  let same_floats a b = Array.length a = Array.length b && Array.for_all2 same_float a b in
  if
    d.Sa_lp.Simplex.status <> d_ref.Sa_lp.Simplex.status
    || (not (same_float d.Sa_lp.Simplex.objective d_ref.Sa_lp.Simplex.objective))
    || (not (same_floats d.Sa_lp.Simplex.x d_ref.Sa_lp.Simplex.x))
    || not (same_floats d.Sa_lp.Simplex.duals d_ref.Sa_lp.Simplex.duals)
  then fail "%s seed %d: tableau solutions differ" what seed;
  d_ref

let prop_solve_matches_reference =
  QCheck.Test.make ~count:80
    ~name:"explicit LP solve = all-column reference (x, duals, objective, pivots)"
    seeds (fun seed ->
      let what, inst, zeroed, _ = random_instance seed in
      let m, _ = Lp.stage ~zeroed inst in
      let m_ref, vars_ref = Lp_reference.stage ~zeroed inst in
      let d_ref = compare_dense ~what ~seed m m_ref in
      let r_ref = compare_solves ~what ~seed m m_ref in
      let s_ref = r_ref.Model.solution in
      let d_obj = d_ref.Sa_lp.Simplex.objective in
      if
        Float.abs (d_obj -. s_ref.Model.objective)
        > Sa_lp.Tol.cert_eps *. (1.0 +. Float.abs d_obj)
      then
        fail "%s seed %d: tableau %.9g vs revised %.9g" what seed d_obj
          s_ref.Model.objective;
      let frac, stats = Lp.solve_explicit_stats ~zeroed inst in
      let want =
        Array.to_list vars_ref
        |> List.mapi (fun var (bidder, bundle) -> (bidder, bundle, s_ref.Model.value var))
        |> List.filter (fun (_, _, x) -> x > 1e-10)
      in
      let got =
        Array.to_list frac.Lp.columns
        |> List.map (fun c -> (c.Lp.bidder, c.Lp.bundle, c.Lp.x))
      in
      if
        List.length got <> List.length want
        || not
             (List.for_all2
                (fun (v, b, x) (v', b', x') ->
                  v = v' && Bundle.equal b b' && same_float x x')
                got want)
      then fail "%s seed %d: solve_explicit_stats columns differ" what seed;
      if not (same_float frac.Lp.objective s_ref.Model.objective) then
        fail "%s seed %d: solve_explicit_stats objective differs" what seed;
      if stats.Lp.iterations <> r_ref.Model.stats.Revised.iterations then
        fail "%s seed %d: solve_explicit_stats pivots differ" what seed;
      true)

(* ---------- interference feasibility ------------------------------------- *)

let with_rho inst rho =
  Instance.with_available
    (Instance.make ~conflict:inst.Instance.conflict ~k:inst.Instance.k
       ~bidders:inst.Instance.bidders ~ordering:inst.Instance.ordering ~rho)
    inst.Instance.available

let check_verdict ~what ~seed inst point =
  let got = Lp.is_lp_feasible inst point in
  let want = Lp_reference.is_lp_feasible inst point in
  if got <> want then
    fail "%s seed %d: feasibility %b vs reference %b (rho %g)" what seed got want
      inst.Instance.rho

(* Points on both sides of every constraint: the LP optimum scaled (plus
   stray columns), then random sparse points checked at ρ just above and
   just below their heaviest interference row, so the verdict hinges on
   that one row's mass. *)
let prop_feasibility_matches_reference =
  QCheck.Test.make ~count:80 ~name:"is_lp_feasible = all-column reference" seeds
    (fun seed ->
      let what, inst, zeroed, g = random_instance seed in
      let n = Instance.n inst and k = inst.Instance.k in
      let frac = Lp.solve_explicit ~zeroed inst in
      let column () =
        {
          Lp.bidder = Prng.int g n;
          bundle = Bundle.of_int (1 + Prng.int g ((1 lsl k) - 1));
          x = Prng.float g 0.5;
        }
      in
      let extra = Array.init (Prng.int g 6) (fun _ -> column ()) in
      List.iter
        (fun factor ->
          List.iter
            (fun columns ->
              check_verdict ~what ~seed inst
                {
                  Lp.columns =
                    Array.map (fun c -> { c with Lp.x = c.Lp.x *. factor }) columns;
                  objective = 0.0;
                })
            [ frac.Lp.columns; Array.append frac.Lp.columns extra ])
        [ 0.5; 1.0; 1.5; 3.0 ];
      for _ = 1 to 8 do
        let point =
          { Lp.columns = Array.init (1 + Prng.int g (2 * n)) (fun _ -> column ()); objective = 0.0 }
        in
        let top = ref 0.0 in
        for v = 0 to n - 1 do
          for channel = 0 to k - 1 do
            top :=
              Float.max !top
                (Lp_reference.interference_mass inst point.Lp.columns ~v ~channel)
          done
        done;
        check_verdict ~what ~seed (with_rho inst (Float.max 1.0 !top)) point;
        if !top *. 0.999 > 1.0 then
          check_verdict ~what ~seed (with_rho inst (!top *. 0.999)) point
      done;
      true)

(* ---------- colgen raw prices --------------------------------------------- *)

(* Colgen reads its prices only through [Price_table], so a table that
   equals the all-vertex sum after every update walks the trajectory a full
   recompute per round would.  Each step keeps some duals from the step
   before (entries the table must leave alone), zeroes some exactly (and
   one in a few to -0.0), and draws the rest over exponents 1e-3..1e3, so
   a stale entry or a changed summation order shows in the last bits. *)
let prop_raw_prices_match_reference =
  QCheck.Test.make ~count:120 ~name:"colgen raw price table = all-vertex sum, bitwise"
    seeds (fun seed ->
      let what, inst, _, g = random_instance seed in
      let n = Instance.n inst and k = inst.Instance.k in
      let table = Oracle.Price_table.create inst in
      let duals = Array.make_matrix n k 0.0 in
      for step = 1 to 1 + Prng.int g 8 do
        Array.iter
          (fun row ->
            for j = 0 to k - 1 do
              match Prng.int g 12 with
              | 0 | 1 | 2 | 3 -> ()
              | 4 | 5 -> row.(j) <- 0.0
              | 6 -> row.(j) <- -0.0
              | _ -> row.(j) <- Prng.float g 1.0 *. (10.0 ** float_of_int (Prng.int g 7 - 3))
            done)
          duals;
        let y u j = duals.(u).(j) in
        Oracle.Price_table.update table ~y;
        for bidder = 0 to n - 1 do
          for channel = 0 to k - 1 do
            let got = Oracle.Price_table.raw table ~bidder ~channel in
            let want = Lp_reference.raw_price inst ~y ~bidder ~channel in
            if not (same_float got want) then
              fail "%s seed %d step %d: raw price (%d, %d) %h vs %h" what seed step
                bidder channel got want
          done
        done
      done;
      true)

(* The colgen master stages its interference entries along forward
   neighbourhoods and marks stale prices along backward ones: the converged
   master must reach the explicit LP optimum at a feasible point. *)
let prop_colgen_matches_explicit =
  QCheck.Test.make ~count:60
    ~name:"colgen: optimum = explicit LP, feasible" seeds
    (fun seed ->
      let what, inst, _, _ = random_instance seed in
      let frac, _ = Oracle.solve inst in
      let explicit = Lp.solve_explicit inst in
      let scale = 1.0 +. Float.abs explicit.Lp.objective in
      if Float.abs (frac.Lp.objective -. explicit.Lp.objective) > 1e-6 *. scale then
        fail "%s seed %d: colgen %.9g vs explicit %.9g" what seed frac.Lp.objective
          explicit.Lp.objective;
      if not (Lp_reference.is_lp_feasible inst frac) then
        fail "%s seed %d: colgen solution infeasible" what seed;
      true)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_iterators_match_definition;
      prop_weighted_iter_wbar;
      prop_stage_matches_reference;
      prop_solve_matches_reference;
      prop_feasibility_matches_reference;
      prop_raw_prices_match_reference;
      prop_colgen_matches_explicit;
    ]
