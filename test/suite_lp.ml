(* Tests for the simplex solver and LP model builder. *)

module Simplex = Sa_lp.Simplex
module Model = Sa_lp.Model
module Prng = Sa_util.Prng

let check_float = Alcotest.(check (float 1e-6))

let solve_max c rows =
  Dense_tableau.solve { Simplex.direction = Maximize; c; rows = Array.of_list rows }

let solve_min c rows =
  Dense_tableau.solve { Simplex.direction = Minimize; c; rows = Array.of_list rows }

let status_testable =
  Alcotest.testable
    (fun fmt s ->
      Format.pp_print_string fmt
        (match s with
        | Simplex.Optimal -> "Optimal"
        | Simplex.Infeasible -> "Infeasible"
        | Simplex.Unbounded -> "Unbounded"
        | Simplex.Iteration_limit -> "Iteration_limit"))
    ( = )

let test_basic_max () =
  (* max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> (4, 0), obj 12 *)
  let s = solve_max [| 3.; 2. |] [ ([| 1.; 1. |], Simplex.Le, 4.); ([| 1.; 3. |], Simplex.Le, 6.) ] in
  Alcotest.check status_testable "status" Simplex.Optimal s.Simplex.status;
  check_float "objective" 12.0 s.Simplex.objective;
  check_float "x" 4.0 s.Simplex.x.(0);
  check_float "y" 0.0 s.Simplex.x.(1)

let test_basic_max_interior () =
  (* max 5x + 4y s.t. 6x + 4y <= 24, x + 2y <= 6 -> x=3, y=1.5, obj 21 *)
  let s =
    solve_max [| 5.; 4. |]
      [ ([| 6.; 4. |], Simplex.Le, 24.); ([| 1.; 2. |], Simplex.Le, 6.) ]
  in
  check_float "objective" 21.0 s.Simplex.objective;
  check_float "x" 3.0 s.Simplex.x.(0);
  check_float "y" 1.5 s.Simplex.x.(1)

let test_duals_max () =
  (* Duals of the previous LP: y1 = 0.75, y2 = 0.5. *)
  let s =
    solve_max [| 5.; 4. |]
      [ ([| 6.; 4. |], Simplex.Le, 24.); ([| 1.; 2. |], Simplex.Le, 6.) ]
  in
  check_float "dual 1" 0.75 s.Simplex.duals.(0);
  check_float "dual 2" 0.5 s.Simplex.duals.(1);
  (* strong duality: b.y = objective *)
  check_float "strong duality" s.Simplex.objective
    ((24. *. s.Simplex.duals.(0)) +. (6. *. s.Simplex.duals.(1)))

let test_basic_min () =
  (* min x + y s.t. x + 2y >= 4, 3x + y >= 6 -> x = 1.6, y = 1.2, obj 2.8 *)
  let s =
    solve_min [| 1.; 1. |]
      [ ([| 1.; 2. |], Simplex.Ge, 4.); ([| 3.; 1. |], Simplex.Ge, 6.) ]
  in
  Alcotest.check status_testable "status" Simplex.Optimal s.Simplex.status;
  check_float "objective" 2.8 s.Simplex.objective;
  check_float "x" 1.6 s.Simplex.x.(0);
  check_float "y" 1.2 s.Simplex.x.(1)

let test_equality () =
  (* max x s.t. x + y = 3, x <= 2 -> x = 2, y = 1 *)
  let s =
    solve_max [| 1.; 0. |]
      [ ([| 1.; 1. |], Simplex.Eq, 3.); ([| 1.; 0. |], Simplex.Le, 2.) ]
  in
  check_float "objective" 2.0 s.Simplex.objective;
  check_float "y" 1.0 s.Simplex.x.(1)

let test_infeasible () =
  let s = solve_max [| 1. |] [ ([| 1. |], Simplex.Le, 1.); ([| 1. |], Simplex.Ge, 2.) ] in
  Alcotest.check status_testable "status" Simplex.Infeasible s.Simplex.status

let test_unbounded () =
  let s = solve_max [| 1. |] [ ([| -1. |], Simplex.Le, 1.) ] in
  Alcotest.check status_testable "status" Simplex.Unbounded s.Simplex.status

let test_negative_rhs () =
  (* max -x s.t. -x <= -2  (i.e. x >= 2) -> x = 2, obj -2 *)
  let s = solve_max [| -1. |] [ ([| -1. |], Simplex.Le, -2.) ] in
  Alcotest.check status_testable "status" Simplex.Optimal s.Simplex.status;
  check_float "objective" (-2.0) s.Simplex.objective

let test_degenerate () =
  (* Beale-like degenerate LP; just has to terminate at the optimum 0.05. *)
  let s =
    solve_max
      [| 0.75; -150.; 0.02; -6. |]
      [
        ([| 0.25; -60.; -0.04; 9. |], Simplex.Le, 0.);
        ([| 0.5; -90.; -0.02; 3. |], Simplex.Le, 0.);
        ([| 0.; 0.; 1.; 0. |], Simplex.Le, 1.);
      ]
  in
  Alcotest.check status_testable "status" Simplex.Optimal s.Simplex.status;
  check_float "objective" 0.05 s.Simplex.objective

let test_zero_rows () =
  let s = solve_max [| 2.; 1. |] [ ([| 1.; 0. |], Simplex.Le, 5.) ] in
  Alcotest.check status_testable "status" Simplex.Unbounded s.Simplex.status

let test_model_builder () =
  let m = Model.create Simplex.Maximize in
  let x = Model.add_var m ~obj:3.0 in
  let y = Model.add_var m ~obj:2.0 in
  let r1 = Model.add_row m [ (x, 1.0); (y, 1.0) ] Simplex.Le 4.0 in
  let _r2 = Model.add_row m [ (x, 1.0); (y, 3.0) ] Simplex.Le 6.0 in
  let sol = Model.solve m in
  check_float "objective" 12.0 sol.Model.objective;
  check_float "x" 4.0 (sol.Model.value x);
  check_float "dual r1" 3.0 (sol.Model.dual r1)

let test_model_add_to_row () =
  let m = Model.create Simplex.Maximize in
  let x = Model.add_var m ~obj:1.0 in
  let r = Model.add_row m [ (x, 1.0) ] Simplex.Le 10.0 in
  (* Column generation style: add a second variable into the same row. *)
  let y = Model.add_var m ~obj:2.0 in
  Model.add_to_row m r y 2.0;
  let sol = Model.solve m in
  (* max x + 2y s.t. x + 2y <= 10 -> obj 10 *)
  check_float "objective" 10.0 sol.Model.objective

let test_model_duplicate_coeffs () =
  let m = Model.create Simplex.Maximize in
  let x = Model.add_var m ~obj:1.0 in
  (* x listed twice: effective coefficient 2 *)
  let _ = Model.add_row m [ (x, 1.0); (x, 1.0) ] Simplex.Le 4.0 in
  let sol = Model.solve m in
  check_float "objective" 2.0 sol.Model.objective

(* Random property: simplex optimum on packing LPs satisfies weak duality
   against the feasible point 0 and its duals price the rhs exactly. *)
let prop_random_packing =
  QCheck.Test.make ~name:"random packing LP: strong duality + feasibility"
    ~count:60
    QCheck.(pair (int_range 1 6) (int_range 1 8))
    (fun (nv, nr) ->
      let g = Prng.create ~seed:((nv * 1000) + nr) in
      let c = Array.init nv (fun _ -> Prng.float g 10.0) in
      let rows =
        Array.init nr (fun _ ->
            ( Array.init nv (fun _ -> Prng.float g 3.0),
              Simplex.Le,
              1.0 +. Prng.float g 5.0 ))
      in
      let s = Dense_tableau.solve { Simplex.direction = Maximize; c; rows } in
      (* A packing LP with a bounded feasible region... may still be
         unbounded if some column is all-zero; accept Optimal or Unbounded,
         and verify properties when Optimal. *)
      match s.Simplex.status with
      | Simplex.Unbounded -> true
      | Simplex.Optimal ->
          let feasible =
            Array.for_all
              (fun (a, _, b) ->
                let lhs = ref 0.0 in
                Array.iteri (fun j aj -> lhs := !lhs +. (aj *. s.Simplex.x.(j))) a;
                !lhs <= b +. 1e-6)
              rows
          in
          let dual_obj =
            Array.to_list rows
            |> List.mapi (fun i (_, _, b) -> b *. s.Simplex.duals.(i))
            |> List.fold_left ( +. ) 0.0
          in
          let duality = Float.abs (dual_obj -. s.Simplex.objective) < 1e-5 in
          let duals_nonneg = Array.for_all (fun y -> y >= -1e-9) s.Simplex.duals in
          feasible && duality && duals_nonneg
      | _ -> false)

(* Dual feasibility: A^T y >= c for maximization with <= rows. *)
let prop_dual_feasible =
  QCheck.Test.make ~name:"random packing LP: dual feasibility" ~count:60
    QCheck.(int_range 1 400)
    (fun seed ->
      let g = Prng.create ~seed in
      let nv = 1 + Prng.int g 6 and nr = 1 + Prng.int g 6 in
      let c = Array.init nv (fun _ -> Prng.float g 10.0) in
      let rows =
        Array.init nr (fun _ ->
            ( Array.init nv (fun _ -> 0.1 +. Prng.float g 3.0),
              Simplex.Le,
              1.0 +. Prng.float g 5.0 ))
      in
      let s = Dense_tableau.solve { Simplex.direction = Maximize; c; rows } in
      match s.Simplex.status with
      | Simplex.Optimal ->
          let ok = ref true in
          for j = 0 to nv - 1 do
            let col = ref 0.0 in
            Array.iteri
              (fun i (a, _, _) -> col := !col +. (a.(j) *. s.Simplex.duals.(i)))
              rows;
            if !col < c.(j) -. 1e-5 then ok := false
          done;
          !ok
      | _ -> false)

(* ---------- Certification --------------------------------------------- *)

let test_certify_simple () =
  let p =
    {
      Simplex.direction = Simplex.Maximize;
      c = [| 5.; 4. |];
      rows = [| ([| 6.; 4. |], Simplex.Le, 24.); ([| 1.; 2. |], Simplex.Le, 6.) |];
    }
  in
  let s = Dense_tableau.solve p in
  let r = Sa_lp.Certify.check p s in
  Alcotest.(check bool) "certified" true r.Sa_lp.Certify.certified

let test_certify_rejects_tampering () =
  let p =
    {
      Simplex.direction = Simplex.Maximize;
      c = [| 1.0 |];
      rows = [| ([| 1.0 |], Simplex.Le, 3.0) |];
    }
  in
  let s = Dense_tableau.solve p in
  let tampered = { s with Simplex.x = [| 5.0 |] } in
  let r = Sa_lp.Certify.check p tampered in
  Alcotest.(check bool) "primal violation caught" false
    r.Sa_lp.Certify.primal_feasible;
  let bad_dual = { s with Simplex.duals = [| -1.0 |] } in
  let r2 = Sa_lp.Certify.check p bad_dual in
  Alcotest.(check bool) "dual sign violation caught" false
    r2.Sa_lp.Certify.dual_feasible

let prop_certify_random =
  QCheck.Test.make ~name:"random packing LPs certify" ~count:80
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let g = Prng.create ~seed in
      let nv = 1 + Prng.int g 7 and nr = 1 + Prng.int g 7 in
      let c = Array.init nv (fun _ -> Prng.float g 10.0) in
      let rows =
        Array.init nr (fun _ ->
            ( Array.init nv (fun _ -> 0.05 +. Prng.float g 3.0),
              Simplex.Le,
              0.5 +. Prng.float g 5.0 ))
      in
      let p = { Simplex.direction = Simplex.Maximize; c; rows } in
      let s = Dense_tableau.solve p in
      match s.Simplex.status with
      | Simplex.Optimal -> (Sa_lp.Certify.check p s).Sa_lp.Certify.certified
      | _ -> false)

let prop_certify_min_random =
  QCheck.Test.make ~name:"random covering LPs certify (minimize)" ~count:60
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let g = Prng.create ~seed in
      let nv = 1 + Prng.int g 5 and nr = 1 + Prng.int g 5 in
      let c = Array.init nv (fun _ -> 0.5 +. Prng.float g 10.0) in
      let rows =
        Array.init nr (fun _ ->
            ( Array.init nv (fun _ -> 0.1 +. Prng.float g 3.0),
              Simplex.Ge,
              0.5 +. Prng.float g 5.0 ))
      in
      let p = { Simplex.direction = Simplex.Minimize; c; rows } in
      let s = Dense_tableau.solve p in
      match s.Simplex.status with
      | Simplex.Optimal -> (Sa_lp.Certify.check p s).Sa_lp.Certify.certified
      | _ -> false)

(* ---------- Certification on degenerate LPs ----------------------------- *)

(* Degenerate packing LPs: coefficients from a tiny integer set, duplicated
   rows and zero right-hand sides force ties in the ratio test and
   zero-length pivots.  The certificates must still come back with clean
   feasibility flags and a duality gap within tolerance — for the dense
   tableau and for the revised engine. *)
let prop_certify_degenerate =
  QCheck.Test.make ~name:"degenerate packing LPs certify (flags + gap)"
    ~count:80
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let g = Prng.create ~seed in
      let nv = 1 + Prng.int g 6 and nr = 2 + Prng.int g 5 in
      let coeff () = float_of_int (Prng.int g 3) in
      let base = Array.init nv (fun _ -> coeff ()) in
      let rows =
        Array.init nr (fun i ->
            let a =
              if i mod 2 = 1 then Array.copy base
              else Array.init nv (fun _ -> coeff ())
            in
            let b =
              if Prng.bernoulli g 0.3 then 0.0
              else float_of_int (1 + Prng.int g 3)
            in
            (a, Simplex.Le, b))
      in
      let c = Array.init nv (fun _ -> float_of_int (Prng.int g 4)) in
      let p = { Simplex.direction = Simplex.Maximize; c; rows } in
      (* x = 0 is feasible (Le rows, b >= 0) so the LP is never infeasible;
         an all-zero column with positive objective makes it unbounded,
         which we accept. *)
      let s = Dense_tableau.solve p in
      match s.Simplex.status with
      | Simplex.Unbounded -> true
      | Simplex.Optimal ->
          let r = Sa_lp.Certify.check p s in
          r.Sa_lp.Certify.primal_feasible && r.Sa_lp.Certify.dual_feasible
          && r.Sa_lp.Certify.duality_gap
             <= 1e-6 *. Float.max 1.0 (Float.abs s.Simplex.objective)
          && r.Sa_lp.Certify.certified
          &&
          let b = Sa_lp.Revised.solve p in
          b.Simplex.status = Simplex.Optimal
          && (Sa_lp.Certify.check p b).Sa_lp.Certify.certified
      | _ -> false)

let max_lp c rows = { Simplex.direction = Simplex.Maximize; c; rows }

(* Runs each [(name, problem, optimum)] on the dense tableau and the
   revised engine: both must reach the known optimum, certify, and agree
   with each other within [Tol.cert_eps].  Returns the revised solutions
   for case-specific checks. *)
let check_edge_cases cases =
  let solvers =
    [ ("dense", fun p -> Dense_tableau.solve p); ("revised", fun p -> Sa_lp.Revised.solve p) ]
  in
  List.map
    (fun (name, p, expect) ->
      let sols =
        List.map
          (fun (ename, solve) ->
            let tag msg = Printf.sprintf "%s %s (%s)" name msg ename in
            let s = solve p in
            Alcotest.(check bool)
              (tag "optimal") true
              (s.Simplex.status = Simplex.Optimal);
            Alcotest.(check (float 1e-9)) (tag "objective") expect
              s.Simplex.objective;
            let r = Sa_lp.Certify.check p s in
            Alcotest.(check bool)
              (tag "primal feasible") true r.Sa_lp.Certify.primal_feasible;
            Alcotest.(check bool)
              (tag "dual feasible") true r.Sa_lp.Certify.dual_feasible;
            Alcotest.(check bool)
              (tag "gap within tolerance") true
              (r.Sa_lp.Certify.duality_gap <= 1e-6);
            Alcotest.(check bool) (tag "certified") true r.Sa_lp.Certify.certified;
            s)
          solvers
      in
      match sols with
      | [ dense; revised ] ->
          Alcotest.(check bool)
            (name ^ " revised = dense within cert_eps") true
            (Float.abs (dense.Simplex.objective -. revised.Simplex.objective)
            <= Sa_lp.Tol.cert_eps *. Float.max 1.0 (Float.abs dense.Simplex.objective));
          revised
      | _ -> assert false)
    cases

(* A zero row (vacuous, but still priced) and a single column under
   redundant parallel rows, which sits at a degenerate vertex. *)
let test_certify_edge_cases () =
  ignore
    (check_edge_cases
       [
         ( "zero-row",
           max_lp [| 1.0 |] [| ([| 0.0 |], Simplex.Le, 1.0); ([| 1.0 |], Simplex.Le, 2.0) |],
           2.0 );
         ( "single-col",
           max_lp [| 3.0 |]
             [|
               ([| 1.0 |], Simplex.Le, 2.0);
               ([| 2.0 |], Simplex.Le, 4.0);
               ([| 1.0 |], Simplex.Le, 2.0);
             |],
           6.0 );
       ])

(* The shapes a presolve would reduce away, solved unreduced: rows that pin
   every variable at zero beside an all-zero row, identical columns fully
   dominated by the most valuable one, a 1x1 LP, exact plus looser
   duplicate rows beside an empty row, and an irreducible covering LP.
   Primal values and duals must come out in original coordinates. *)
let test_presolve_edge_cases () =
  let cases =
    [
      ( "all-fixed",
        max_lp [| 1.0; 2.0 |]
          [|
            ([| 1.0; 0.0 |], Simplex.Le, 0.0);
            ([| 0.0; 1.0 |], Simplex.Le, 0.0);
            ([| 0.0; 0.0 |], Simplex.Le, 5.0);
          |],
        0.0 );
      ( "dominated-cols",
        max_lp [| 5.0; 4.0; 3.0 |] [| ([| 1.0; 1.0; 1.0 |], Simplex.Le, 1.0) |],
        5.0 );
      ("one-by-one", max_lp [| 3.0 |] [| ([| 2.0 |], Simplex.Le, 4.0) |], 6.0);
      ( "duplicate-rows",
        max_lp [| 4.0; 3.0; 2.0 |]
          [|
            ([| 1.0; 1.0; 1.0 |], Simplex.Le, 2.0);
            ([| 2.0; 1.0; 1.0 |], Simplex.Le, 3.0);
            ([| 1.0; 1.0; 1.0 |], Simplex.Le, 2.0);
            ([| 2.0; 1.0; 1.0 |], Simplex.Le, 4.5);
            ([| 0.0; 0.0; 0.0 |], Simplex.Le, 1.0);
          |],
        7.0 );
      ( "irreducible",
        {
          Simplex.direction = Simplex.Minimize;
          c = [| 1.0; 1.0 |];
          rows =
            [|
              ([| 1.0; 2.0 |], Simplex.Ge, 4.0); ([| 3.0; 1.0 |], Simplex.Ge, 6.0);
            |];
        },
        2.8 );
    ]
  in
  match check_edge_cases cases with
  | [ fixed; dominated; tiny; dup; irreducible ] ->
      check_float "all-fixed x0" 0.0 fixed.Simplex.x.(0);
      check_float "all-fixed x1" 0.0 fixed.Simplex.x.(1);
      check_float "all-fixed fixing dual 0" 1.0 fixed.Simplex.duals.(0);
      check_float "all-fixed fixing dual 1" 2.0 fixed.Simplex.duals.(1);
      check_float "all-fixed redundant dual" 0.0 fixed.Simplex.duals.(2);
      check_float "dominated x0" 1.0 dominated.Simplex.x.(0);
      check_float "dominated x1" 0.0 dominated.Simplex.x.(1);
      check_float "dominated x2" 0.0 dominated.Simplex.x.(2);
      check_float "1x1 x" 2.0 tiny.Simplex.x.(0);
      check_float "1x1 dual" 1.5 tiny.Simplex.duals.(0);
      check_float "duplicate-rows looser row dual" 0.0 dup.Simplex.duals.(3);
      check_float "duplicate-rows empty row dual" 0.0 dup.Simplex.duals.(4);
      check_float "irreducible x0" 1.6 irreducible.Simplex.x.(0);
      check_float "irreducible x1" 1.2 irreducible.Simplex.x.(1)
  | _ -> assert false

(* ---------- Workspace reuse --------------------------------------------- *)

let random_packing_problem g =
  let nb = 2 + Prng.int g 5 and k = 1 + Prng.int g 3 in
  let ncols = nb * (1 + Prng.int g 3) in
  let owner = Array.init ncols (fun c -> c mod nb) in
  let c = Array.init ncols (fun _ -> Prng.float g 10.0) in
  let unit_rows =
    Array.init nb (fun v ->
        ( Array.init ncols (fun cix -> if owner.(cix) = v then 1.0 else 0.0),
          Simplex.Le,
          1.0 ))
  in
  let intf_rows =
    Array.init (nb * k) (fun _ ->
        ( Array.init ncols (fun _ ->
              if Prng.bernoulli g 0.3 then Prng.float g 1.0 else 0.0),
          Simplex.Le,
          1.0 +. Prng.float g 2.0 ))
  in
  {
    Simplex.direction = Simplex.Maximize;
    c;
    rows = Array.append unit_rows intf_rows;
  }

(* Workspace-reuse solves must be bitwise equal to fresh-allocation solves:
   the shared arena first runs a different LP — leaving grown buffers full
   of stale data — and then the probe LP.  Every buffer the solver reads
   must have been re-initialised over its used range, so the result matches
   a virgin arena's bit for bit. *)
let prop_workspace_reuse_bitwise =
  QCheck.Test.make ~name:"workspace reuse bitwise = fresh arena" ~count:40
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let g = Prng.create ~seed in
      let decoy = random_packing_problem g in
      let p = random_packing_problem g in
      let bits s =
        ( s.Simplex.status,
          Array.map Int64.bits_of_float s.Simplex.x,
          Array.map Int64.bits_of_float s.Simplex.duals,
          Int64.bits_of_float s.Simplex.objective )
      in
      let fresh = Sa_lp.Revised.solve ~workspace:(Sa_lp.Workspace.create ()) p in
      let arena = Sa_lp.Workspace.create () in
      ignore (Sa_lp.Revised.solve ~workspace:arena decoy);
      let reused = Sa_lp.Revised.solve ~workspace:arena p in
      bits fresh = bits reused)

(* The colgen pattern: warm re-solves of one LP(1)-shaped packing problem
   (60 bidders, 4 channels, 240 columns) from its optimal basis, once on a
   shared arena and once on a fresh arena per re-solve.  The shared arena
   must allocate no more; allocation, unlike time, is deterministic, so
   this is an exact check. *)
let test_workspace_reuse_allocates_less () =
  let g = Prng.create ~seed:13 in
  let nb = 60 and k = 4 in
  let ncols = nb * 4 in
  let c = Array.init ncols (fun _ -> Prng.float g 10.0) in
  let unit_rows =
    Array.init nb (fun v ->
        (Array.init ncols (fun cix -> if cix mod nb = v then 1.0 else 0.0), Simplex.Le, 1.0))
  in
  let intf_rows =
    Array.init (nb * k) (fun _ ->
        ( Array.init ncols (fun _ -> if Prng.bernoulli g 0.08 then Prng.float g 1.0 else 0.0),
          Simplex.Le,
          2.5 ))
  in
  let p =
    { Simplex.direction = Simplex.Maximize; c; rows = Array.append unit_rows intf_rows }
  in
  let reps = 5 in
  let allocated ~shared =
    let arena = Sa_lp.Workspace.create () in
    let basis =
      match Sa_lp.Revised.solve_warm ~workspace:arena p with
      | _, Some b, _ -> b
      | _, None, _ -> Alcotest.fail "packing LP did not reach optimality"
    in
    let before = Gc.allocated_bytes () in
    for _ = 1 to reps do
      let workspace = if shared then arena else Sa_lp.Workspace.create () in
      ignore (Sa_lp.Revised.solve_warm ~warm_start:basis ~workspace p)
    done;
    Gc.allocated_bytes () -. before
  in
  let fresh = allocated ~shared:false and reuse = allocated ~shared:true in
  Alcotest.(check bool)
    (Printf.sprintf "fresh %.0f B >= reuse %.0f B" fresh reuse)
    true (fresh >= reuse)

(* ---------- Revised simplex cross-validation --------------------------- *)

let test_revised_matches_dense_basics () =
  let problems =
    [
      {
        Simplex.direction = Simplex.Maximize;
        c = [| 3.; 2. |];
        rows = [| ([| 1.; 1. |], Simplex.Le, 4.); ([| 1.; 3. |], Simplex.Le, 6.) |];
      };
      {
        Simplex.direction = Simplex.Minimize;
        c = [| 1.; 1. |];
        rows = [| ([| 1.; 2. |], Simplex.Ge, 4.); ([| 3.; 1. |], Simplex.Ge, 6.) |];
      };
      {
        Simplex.direction = Simplex.Maximize;
        c = [| 1.; 0. |];
        rows = [| ([| 1.; 1. |], Simplex.Eq, 3.); ([| 1.; 0. |], Simplex.Le, 2.) |];
      };
    ]
  in
  List.iter
    (fun p ->
      let a = Dense_tableau.solve p and b = Sa_lp.Revised.solve p in
      Alcotest.(check bool) "status agrees" true (a.Simplex.status = b.Simplex.status);
      Alcotest.(check (float 1e-6)) "objective agrees" a.Simplex.objective
        b.Simplex.objective;
      Alcotest.(check bool) "revised certified" true
        (Sa_lp.Certify.check p b).Sa_lp.Certify.certified)
    problems

let test_revised_detects_infeasible_unbounded () =
  let infeasible =
    {
      Simplex.direction = Simplex.Maximize;
      c = [| 1. |];
      rows = [| ([| 1. |], Simplex.Le, 1.); ([| 1. |], Simplex.Ge, 2.) |];
    }
  in
  Alcotest.(check bool) "infeasible" true
    ((Sa_lp.Revised.solve infeasible).Simplex.status = Simplex.Infeasible);
  let unbounded =
    {
      Simplex.direction = Simplex.Maximize;
      c = [| 1. |];
      rows = [| ([| -1. |], Simplex.Le, 1.) |];
    }
  in
  Alcotest.(check bool) "unbounded" true
    ((Sa_lp.Revised.solve unbounded).Simplex.status = Simplex.Unbounded)

let prop_revised_matches_dense =
  QCheck.Test.make ~name:"revised = dense on random LPs" ~count:120
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let g = Prng.create ~seed in
      let nv = 1 + Prng.int g 8 and nr = 1 + Prng.int g 8 in
      let c = Array.init nv (fun _ -> Prng.float g 10.0 -. 2.0) in
      let rel_of = function
        | 0 -> Simplex.Le
        | 1 -> Simplex.Ge
        | _ -> Simplex.Eq
      in
      let rows =
        Array.init nr (fun _ ->
            let rel = if Prng.bernoulli g 0.7 then Simplex.Le else rel_of (Prng.int g 3) in
            ( Array.init nv (fun _ -> Prng.float g 4.0 -. 1.0),
              rel,
              Prng.float g 6.0 -. 1.0 ))
      in
      let direction = if Prng.bool g then Simplex.Maximize else Simplex.Minimize in
      let p = { Simplex.direction; c; rows } in
      let a = Dense_tableau.solve p and b = Sa_lp.Revised.solve p in
      match (a.Simplex.status, b.Simplex.status) with
      | Simplex.Optimal, Simplex.Optimal ->
          Float.abs (a.Simplex.objective -. b.Simplex.objective)
          <= 1e-5 *. Float.max 1.0 (Float.abs a.Simplex.objective)
      | sa, sb -> sa = sb)

(* The eta-file engine must reach the same certified optimum as the dense
   tableau on LP(1)-shaped packing instances (unit rows + interference rows),
   both cold and warm-started from its own optimal basis, and do so
   identically whether the solves run on 1 domain or are fanned across 4. *)
let prop_eta_warm_matches_dense_across_domains =
  QCheck.Test.make ~name:"eta revised (cold+warm) = dense across domains" ~count:30
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let g = Prng.create ~seed in
      let nb = 2 + Prng.int g 6 and k = 1 + Prng.int g 3 in
      let ncols = nb * (1 + Prng.int g 3) in
      let owner = Array.init ncols (fun c -> c mod nb) in
      let c = Array.init ncols (fun _ -> Prng.float g 10.0) in
      let rho = 1.0 +. Prng.float g 2.0 in
      let unit_rows =
        Array.init nb (fun v ->
            ( Array.init ncols (fun cix -> if owner.(cix) = v then 1.0 else 0.0),
              Simplex.Le,
              1.0 ))
      in
      let intf_rows =
        Array.init (nb * k) (fun _ ->
            ( Array.init ncols (fun _ ->
                  if Prng.bernoulli g 0.3 then Prng.float g 1.0 else 0.0),
              Simplex.Le,
              rho ))
      in
      let p =
        {
          Simplex.direction = Simplex.Maximize;
          c;
          rows = Array.append unit_rows intf_rows;
        }
      in
      let dense = Dense_tableau.solve p in
      let close a = Float.abs (a -. dense.Simplex.objective) <= 1e-6 *. Float.max 1.0 (Float.abs dense.Simplex.objective) in
      let certified s = (Sa_lp.Certify.check p s).Sa_lp.Certify.certified in
      let run _ =
        let s1, b1, _ = Sa_lp.Revised.solve_warm p in
        let s2, _, st2 = Sa_lp.Revised.solve_warm ?warm_start:b1 p in
        s1.Simplex.status = Simplex.Optimal
        && certified s1 && certified s2
        && close s1.Simplex.objective
        && close s2.Simplex.objective
        && st2.Sa_lp.Revised.warm_used
      in
      dense.Simplex.status = Simplex.Optimal
      && Array.for_all Fun.id (Sa_core.Pool.map_array ~domains:1 run (Array.init 2 Fun.id))
      && Array.for_all Fun.id (Sa_core.Pool.map_array ~domains:4 run (Array.init 4 Fun.id)))

let suite =
  [
    Alcotest.test_case "basic max" `Quick test_basic_max;
    Alcotest.test_case "revised simplex basics" `Quick test_revised_matches_dense_basics;
    Alcotest.test_case "revised: infeasible/unbounded" `Quick test_revised_detects_infeasible_unbounded;
    QCheck_alcotest.to_alcotest prop_revised_matches_dense;
    Alcotest.test_case "certify optimal solution" `Quick test_certify_simple;
    Alcotest.test_case "certify rejects tampering" `Quick test_certify_rejects_tampering;
    QCheck_alcotest.to_alcotest prop_certify_random;
    QCheck_alcotest.to_alcotest prop_certify_min_random;
    Alcotest.test_case "interior optimum" `Quick test_basic_max_interior;
    Alcotest.test_case "duals of max LP" `Quick test_duals_max;
    Alcotest.test_case "basic min with >= rows" `Quick test_basic_min;
    Alcotest.test_case "equality row" `Quick test_equality;
    Alcotest.test_case "infeasible detected" `Quick test_infeasible;
    Alcotest.test_case "unbounded detected" `Quick test_unbounded;
    Alcotest.test_case "negative rhs normalised" `Quick test_negative_rhs;
    Alcotest.test_case "degenerate LP terminates" `Quick test_degenerate;
    Alcotest.test_case "unbounded via uncovered column" `Quick test_zero_rows;
    Alcotest.test_case "model builder" `Quick test_model_builder;
    Alcotest.test_case "model add_to_row (column generation)" `Quick test_model_add_to_row;
    Alcotest.test_case "model duplicate coefficients summed" `Quick test_model_duplicate_coeffs;
    QCheck_alcotest.to_alcotest prop_random_packing;
    QCheck_alcotest.to_alcotest prop_dual_feasible;
    QCheck_alcotest.to_alcotest prop_eta_warm_matches_dense_across_domains;
    QCheck_alcotest.to_alcotest prop_certify_degenerate;
    Alcotest.test_case "certify edge cases (zero row, single column)" `Quick
      test_certify_edge_cases;
    Alcotest.test_case "presolve edge cases" `Quick test_presolve_edge_cases;
    QCheck_alcotest.to_alcotest prop_workspace_reuse_bitwise;
    Alcotest.test_case "workspace reuse allocates no more than fresh" `Quick
      test_workspace_reuse_allocates_less;
  ]
