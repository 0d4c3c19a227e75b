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
   tableau and for the revised engine under both pricing rules. *)
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
          && List.for_all
               (fun pricing ->
                 let b = Sa_lp.Revised.solve ~pricing p in
                 b.Simplex.status = Simplex.Optimal
                 && (Sa_lp.Certify.check p b).Sa_lp.Certify.certified)
               [ Sa_lp.Revised.Dantzig; Sa_lp.Revised.Devex ]
      | _ -> false)

let test_certify_edge_cases () =
  (* zero row: 0·x <= 1 is vacuous but must still be priced; single column
     with redundant parallel rows sits at a degenerate vertex *)
  let p_zero_row =
    {
      Simplex.direction = Simplex.Maximize;
      c = [| 1.0 |];
      rows = [| ([| 0.0 |], Simplex.Le, 1.0); ([| 1.0 |], Simplex.Le, 2.0) |];
    }
  in
  let p_single_col =
    {
      Simplex.direction = Simplex.Maximize;
      c = [| 3.0 |];
      rows =
        [|
          ([| 1.0 |], Simplex.Le, 2.0);
          ([| 2.0 |], Simplex.Le, 4.0);
          ([| 1.0 |], Simplex.Le, 2.0);
        |];
    }
  in
  let solvers =
    [
      ("dense", fun p -> Dense_tableau.solve p);
      ( "revised-dantzig",
        fun p -> Sa_lp.Revised.solve ~pricing:Sa_lp.Revised.Dantzig p );
      ( "revised-devex",
        fun p -> Sa_lp.Revised.solve ~pricing:Sa_lp.Revised.Devex p );
    ]
  in
  List.iter
    (fun (name, p, expect) ->
      List.iter
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
          Alcotest.(check bool) (tag "certified") true r.Sa_lp.Certify.certified)
        solvers)
    [ ("zero-row", p_zero_row, 2.0); ("single-col", p_single_col, 6.0) ]

(* ---------- Pricing rules + workspace reuse ----------------------------- *)

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

(* Devex and Dantzig walk different pivot sequences but must certify the
   same optimum on packing LPs (every column is covered by its owner's
   unit row, so the LP is bounded and feasible). *)
let prop_devex_dantzig_parity =
  QCheck.Test.make ~name:"devex = dantzig: certified objective parity"
    ~count:60
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let g = Prng.create ~seed in
      let p = random_packing_problem g in
      let d = Sa_lp.Revised.solve ~pricing:Sa_lp.Revised.Dantzig p in
      let x = Sa_lp.Revised.solve ~pricing:Sa_lp.Revised.Devex p in
      match (d.Simplex.status, x.Simplex.status) with
      | Simplex.Optimal, Simplex.Optimal ->
          (Sa_lp.Certify.check p d).Sa_lp.Certify.certified
          && (Sa_lp.Certify.check p x).Sa_lp.Certify.certified
          && Float.abs (d.Simplex.objective -. x.Simplex.objective)
             <= 1e-6 *. Float.max 1.0 (Float.abs d.Simplex.objective)
      | sd, sx -> sd = sx)

(* Workspace-reuse solves must be bitwise equal to fresh-allocation solves:
   the shared arena first runs a different LP — leaving grown buffers full
   of stale data — and then the probe LP.  Every buffer the solver reads
   must have been re-initialised over its used range, so the result matches
   a virgin arena's bit for bit, under both pricing rules. *)
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
      List.for_all
        (fun pricing ->
          let fresh =
            Sa_lp.Revised.solve ~pricing
              ~workspace:(Sa_lp.Workspace.create ())
              p
          in
          let arena = Sa_lp.Workspace.create () in
          ignore (Sa_lp.Revised.solve ~pricing ~workspace:arena decoy);
          let reused = Sa_lp.Revised.solve ~pricing ~workspace:arena p in
          bits fresh = bits reused)
        [ Sa_lp.Revised.Dantzig; Sa_lp.Revised.Devex ])

(* ---------- Presolve ----------------------------------------------------- *)

module Presolve = Sa_lp.Presolve

let solution_bits s =
  ( s.Simplex.status,
    Array.map Int64.bits_of_float s.Simplex.x,
    Array.map Int64.bits_of_float s.Simplex.duals,
    Int64.bits_of_float s.Simplex.objective )

(* A packing LP engineered so the only presolve reductions are the junk we
   inject — and each injected reduction is pivot-path-neutral, so the
   presolved solve must match the raw solve {e bitwise}:
   - every bidder owns two columns and every interference row has >= 2
     entries (no singleton rows, no empty rows in the base matrix);
   - same-owner columns get distinct interference supports (membership
     [(cix + r) mod 3 < 2]), so no accidental cross-column domination with
     unequal values — only the injected exact-duplicate columns group;
   - appended exact-duplicate rows carry strictly larger rhs (their slack
     never wins the ratio test against the kept twin's);
   - appended exact-duplicate columns carry strictly smaller objective
     (their reduced cost always trails the original's, so they never
     enter);
   - sizes keep nstruct + m <= 16, so the Dantzig partial-pricing window
     always covers every column, and pivots stay far below the
     refactorization interval. *)
let presolve_probe g =
  let nb = 2 in
  let mult = 2 in
  let k = 1 + Prng.int g 2 in
  let ncols0 = nb * mult in
  let owner = Array.init ncols0 (fun cix -> cix mod nb) in
  let c0 = Array.init ncols0 (fun _ -> 0.1 +. Prng.float g 10.0) in
  let unit_rows =
    Array.init nb (fun v ->
        ( Array.init ncols0 (fun cix -> if owner.(cix) = v then 1.0 else 0.0),
          Simplex.Le,
          1.0 ))
  in
  let intf_rows =
    Array.init (nb * k) (fun r ->
        ( Array.init ncols0 (fun cix ->
              if (cix + r) mod 3 < 2 then 0.1 +. Prng.float g 1.0 else 0.0),
          Simplex.Le,
          1.0 +. Prng.float g 2.0 ))
  in
  let rows0 = Array.append unit_rows intf_rows in
  (* duplicate columns, strictly cheaper, appended after the originals *)
  let dup_srcs = [| Prng.int g ncols0; Prng.int g ncols0 |] in
  let ncols = ncols0 + Array.length dup_srcs in
  let extend a = Array.init ncols (fun j -> if j < ncols0 then a.(j) else a.(dup_srcs.(j - ncols0))) in
  let c = extend c0 in
  Array.iteri (fun d src -> c.(ncols0 + d) <- 0.5 *. c0.(src)) dup_srcs;
  let rows = Array.map (fun (a, rel, b) -> (extend a, rel, b)) rows0 in
  (* duplicate rows with strictly larger rhs, plus a zero row, appended *)
  let dup_row i slack =
    let a, rel, b = rows.(i) in
    (Array.copy a, rel, b +. slack)
  in
  let nrows0 = Array.length rows in
  let junk =
    [|
      dup_row (Prng.int g nrows0) 0.5;
      dup_row (Prng.int g nrows0) (1.0 +. Prng.float g 1.0);
      (Array.make ncols 0.0, Simplex.Le, 1.0);
    |]
  in
  { Simplex.direction = Simplex.Maximize; c; rows = Array.append rows junk }

let no_scaling = { Presolve.reductions = true; scaling = false }

let prop_presolve_postsolve_bitwise =
  QCheck.Test.make
    ~name:"presolve o postsolve bitwise = raw solve (both pricings)" ~count:60
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let g = Prng.create ~seed in
      let p = presolve_probe g in
      let spec = Sa_lp.Revised.spec_of_problem p in
      List.for_all
        (fun pricing ->
          let baseline, _, _ =
            Sa_lp.Revised.solve_spec ~pricing
              ~workspace:(Sa_lp.Workspace.create ())
              spec
          in
          let ws = Sa_lp.Workspace.create () in
          match Presolve.reduce ~config:no_scaling ~workspace:ws spec with
          | None -> false (* the injected junk guarantees reductions *)
          | Some (reduced, pr) ->
              let info = Presolve.info pr in
              let rsol, rbasis, _ =
                Sa_lp.Revised.solve_spec ~pricing ~workspace:ws reduced
              in
              let sol = Presolve.postsolve pr rsol in
              info.Presolve.rows_removed >= 3
              && info.Presolve.cols_removed >= 2
              && info.Presolve.duplicates >= 2
              && solution_bits sol = solution_bits baseline
              && (Sa_lp.Certify.check p sol).Sa_lp.Certify.certified
              &&
              (* the lifted optimal basis warm-starts the raw LP *)
              match Option.bind rbasis (Presolve.map_basis_out pr) with
              | Some ob ->
                  let s2, _, st2 =
                    Sa_lp.Revised.solve_spec ~pricing ~warm_start:ob
                      ~workspace:(Sa_lp.Workspace.create ())
                      spec
                  in
                  st2.Sa_lp.Revised.warm_used
                  && Float.abs (s2.Simplex.objective -. sol.Simplex.objective)
                     <= 1e-9 *. Float.max 1.0 (Float.abs sol.Simplex.objective)
              | None -> false)
        [ Sa_lp.Revised.Dantzig; Sa_lp.Revised.Devex ])

(* Full pipeline (reductions + power-of-two scaling) on unconstrained
   random packing LPs: the pivot path may legitimately differ, but the
   postsolved solution must certify against the *original* problem and
   agree with the raw objective within tolerance. *)
let prop_presolve_certified_parity =
  QCheck.Test.make ~name:"presolve+scaling certified parity" ~count:40
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let g = Prng.create ~seed in
      let p = random_packing_problem g in
      let spec = Sa_lp.Revised.spec_of_problem p in
      List.for_all
        (fun pricing ->
          let baseline, _, _ =
            Sa_lp.Revised.solve_spec ~pricing
              ~workspace:(Sa_lp.Workspace.create ())
              spec
          in
          let ws = Sa_lp.Workspace.create () in
          match Presolve.reduce ~workspace:ws spec with
          | None -> true (* nothing to reduce or scale: raw solve is used *)
          | Some (reduced, pr) ->
              let rsol, _, _ =
                Sa_lp.Revised.solve_spec ~pricing ~workspace:ws reduced
              in
              let sol = Presolve.postsolve pr rsol in
              (match (sol.Simplex.status, baseline.Simplex.status) with
              | Simplex.Optimal, Simplex.Optimal ->
                  (Sa_lp.Certify.check p sol).Sa_lp.Certify.certified
                  && Float.abs (sol.Simplex.objective -. baseline.Simplex.objective)
                     <= 1e-6 *. Float.max 1.0 (Float.abs baseline.Simplex.objective)
              | s, s' -> s = s'))
        [ Sa_lp.Revised.Dantzig; Sa_lp.Revised.Devex ])

let test_presolve_edge_cases () =
  (* all rows (and columns) presolved away: fixing rows get reconstructed
     duals and the empty reduced LP still certifies in original space *)
  let p_all_fixed =
    {
      Simplex.direction = Simplex.Maximize;
      c = [| 1.0; 2.0 |];
      rows =
        [|
          ([| 1.0; 0.0 |], Simplex.Le, 0.0);
          ([| 0.0; 1.0 |], Simplex.Le, 0.0);
          ([| 0.0; 0.0 |], Simplex.Le, 5.0);
        |];
    }
  in
  let spec = Sa_lp.Revised.spec_of_problem p_all_fixed in
  let ws = Sa_lp.Workspace.create () in
  (match Presolve.reduce ~workspace:ws spec with
  | None -> Alcotest.fail "expected reductions on the all-fixed model"
  | Some (reduced, pr) ->
      Alcotest.(check int) "all rows removed" 3 (Presolve.info pr).Presolve.rows_removed;
      Alcotest.(check int) "all cols removed" 2 (Presolve.info pr).Presolve.cols_removed;
      let rsol, _, _ = Sa_lp.Revised.solve_spec ~workspace:ws reduced in
      let sol = Presolve.postsolve pr rsol in
      Alcotest.check status_testable "status" Simplex.Optimal sol.Simplex.status;
      check_float "objective" 0.0 sol.Simplex.objective;
      check_float "x0" 0.0 sol.Simplex.x.(0);
      check_float "x1" 0.0 sol.Simplex.x.(1);
      check_float "fixing dual 0" 1.0 sol.Simplex.duals.(0);
      check_float "fixing dual 1" 2.0 sol.Simplex.duals.(1);
      check_float "redundant dual" 0.0 sol.Simplex.duals.(2);
      Alcotest.(check bool)
        "certified" true
        (Sa_lp.Certify.check p_all_fixed sol).Sa_lp.Certify.certified);
  (* fully dominated model: one column survives *)
  let p_dominated =
    {
      Simplex.direction = Simplex.Maximize;
      c = [| 5.0; 4.0; 3.0 |];
      rows = [| ([| 1.0; 1.0; 1.0 |], Simplex.Le, 1.0) |];
    }
  in
  let spec = Sa_lp.Revised.spec_of_problem p_dominated in
  let ws = Sa_lp.Workspace.create () in
  (match Presolve.reduce ~config:no_scaling ~workspace:ws spec with
  | None -> Alcotest.fail "expected column elimination on the dominated model"
  | Some (reduced, pr) ->
      Alcotest.(check int) "dominated cols removed" 2
        (Presolve.info pr).Presolve.cols_removed;
      Alcotest.(check int) "one col left" 1 reduced.Sa_lp.Revised.s_nstruct;
      let rsol, _, _ = Sa_lp.Revised.solve_spec ~workspace:ws reduced in
      let sol = Presolve.postsolve pr rsol in
      check_float "objective" 5.0 sol.Simplex.objective;
      check_float "x0" 1.0 sol.Simplex.x.(0);
      check_float "x1" 0.0 sol.Simplex.x.(1);
      check_float "x2" 0.0 sol.Simplex.x.(2);
      Alcotest.(check bool)
        "certified" true
        (Sa_lp.Certify.check p_dominated sol).Sa_lp.Certify.certified);
  (* 1x1 LP, scaling only: power-of-two unscaling is exact *)
  let p_tiny =
    {
      Simplex.direction = Simplex.Maximize;
      c = [| 3.0 |];
      rows = [| ([| 2.0 |], Simplex.Le, 4.0) |];
    }
  in
  let spec = Sa_lp.Revised.spec_of_problem p_tiny in
  let ws = Sa_lp.Workspace.create () in
  (match Presolve.reduce ~workspace:ws spec with
  | None -> Alcotest.fail "expected a scaling pass on the 1x1 model"
  | Some (reduced, pr) ->
      Alcotest.(check bool)
        "scaling pass ran" true
        ((Presolve.info pr).Presolve.scaling_passes >= 1);
      let rsol, _, _ = Sa_lp.Revised.solve_spec ~workspace:ws reduced in
      let sol = Presolve.postsolve pr rsol in
      let raw =
        Sa_lp.Revised.solve ~workspace:(Sa_lp.Workspace.create ()) p_tiny
      in
      Alcotest.(check bool)
        "bitwise equal to raw solve" true
        (solution_bits sol = solution_bits raw);
      check_float "objective" 6.0 sol.Simplex.objective;
      check_float "x" 2.0 sol.Simplex.x.(0);
      check_float "dual" 1.5 sol.Simplex.duals.(0));
  (* irreducible spec: reduce declines *)
  let p_irreducible =
    {
      Simplex.direction = Simplex.Minimize;
      c = [| 1.0; 1.0 |];
      rows =
        [|
          ([| 1.0; 2.0 |], Simplex.Ge, 4.0); ([| 3.0; 1.0 |], Simplex.Ge, 6.0);
        |];
    }
  in
  let spec = Sa_lp.Revised.spec_of_problem p_irreducible in
  match
    Presolve.reduce ~config:no_scaling ~workspace:(Sa_lp.Workspace.create ()) spec
  with
  | None -> ()
  | Some _ -> Alcotest.fail "expected no reductions on the irreducible model"

(* The integrated path: Model.solve_with_basis ~presolve composes with the
   warm-start token contract (bases stay in original coordinates). *)
let test_presolve_model_integration () =
  let build () =
    let m = Model.create Simplex.Maximize in
    let x0 = Model.add_var m ~obj:4.0 in
    let x1 = Model.add_var m ~obj:3.0 in
    let x2 = Model.add_var m ~obj:2.0 (* duplicate of x1, cheaper *) in
    ignore (Model.add_row m [ (x0, 1.0); (x1, 1.0); (x2, 1.0) ] Simplex.Le 2.0);
    ignore (Model.add_row m [ (x0, 2.0); (x1, 1.0); (x2, 1.0) ] Simplex.Le 3.0);
    ignore (Model.add_row m [ (x0, 2.0); (x1, 1.0); (x2, 1.0) ] Simplex.Le 4.5);
    ignore (Model.add_row m [] Simplex.Le 1.0);
    m
  in
  let plain = Model.solve_with_basis ~workspace:(Sa_lp.Workspace.create ()) (build ()) in
  let pre =
    Model.solve_with_basis ~presolve:true
      ~workspace:(Sa_lp.Workspace.create ()) (build ())
  in
  Alcotest.check status_testable "status" Simplex.Optimal
    pre.Model.solution.Model.status;
  check_float "objective parity" plain.Model.solution.Model.objective
    pre.Model.solution.Model.objective;
  (match pre.Model.basis with
  | None -> Alcotest.fail "presolved solve should return a basis"
  | Some basis ->
      let rewarmed =
        Model.solve_with_basis ~presolve:true ~warm_start:basis
          ~workspace:(Sa_lp.Workspace.create ()) (build ())
      in
      Alcotest.(check bool)
        "warm start survives presolve" true
        rewarmed.Model.stats.Sa_lp.Revised.warm_used;
      check_float "rewarmed objective" pre.Model.solution.Model.objective
        rewarmed.Model.solution.Model.objective);
  (* duals exposed by the model are already postsolved to original rows *)
  check_float "redundant row dual" 0.0 (pre.Model.solution.Model.dual 2);
  check_float "empty row dual" 0.0 (pre.Model.solution.Model.dual 3)

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
      && Array.for_all Fun.id (Sa_core.Fanout.map_array ~domains:1 run (Array.init 2 Fun.id))
      && Array.for_all Fun.id (Sa_core.Fanout.map_array ~domains:4 run (Array.init 4 Fun.id)))

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
    QCheck_alcotest.to_alcotest prop_devex_dantzig_parity;
    QCheck_alcotest.to_alcotest prop_workspace_reuse_bitwise;
    QCheck_alcotest.to_alcotest prop_presolve_postsolve_bitwise;
    QCheck_alcotest.to_alcotest prop_presolve_certified_parity;
    Alcotest.test_case "presolve edge cases" `Quick test_presolve_edge_cases;
    Alcotest.test_case "presolve model integration" `Quick
      test_presolve_model_integration;
  ]
