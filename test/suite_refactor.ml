(* Solves that actually rebuild the eta file.  The random LPs elsewhere in
   the suite are too small to reach the refactor interval, so these cases
   use the served packing LP (1) of disk and protocol instances at
   n = 150..200, where a cold solve crosses the interval twice, a warm
   re-solve whose crash pivots cross it, and two hand-built LPs: one whose
   basis holds two dependent columns at the rebuild (the unit-eta
   fallback), one whose rebuild meets an exact tie for the pivot row.
   Every case checks that the refactorization counter moved; the golden
   case pins the bits of objective, x and duals, the returned basis and
   the pivot count. *)

module Simplex = Sa_lp.Simplex
module Revised = Sa_lp.Revised
module Workspace = Sa_lp.Workspace
module Model = Sa_lp.Model
module Tol = Sa_lp.Tol
module Prng = Sa_util.Prng
module Lp = Sa_core.Lp_relaxation
module Workloads = Sa_exp.Workloads
module Tel = Sa_telemetry.Metrics

let refactorizations = Tel.counter "lp.revised.refactorizations"

(* The served packing LP (1) of a disk or protocol instance, copied out of
   the staging arena so it outlives the next staging. *)
let packing_spec ~model ~profile ~n ~k ~seed =
  let inst =
    match model with
    | `Disk -> Workloads.disk_instance ~seed ~n ~k ~profile ()
    | `Protocol -> Workloads.protocol_instance ~seed ~n ~k ~profile ()
  in
  let lp, _ = Lp.stage inst in
  let s = Model.to_spec (Workspace.create ()) lp in
  let nnz = s.Revised.s_cstart.(s.s_nstruct) in
  {
    s with
    Revised.s_c = Array.sub s.s_c 0 s.s_nstruct;
    s_rel = Array.sub s.s_rel 0 s.s_m;
    s_rhs = Array.sub s.s_rhs 0 s.s_m;
    s_cstart = Array.sub s.s_cstart 0 (s.s_nstruct + 1);
    s_crow = Array.sub s.s_crow 0 nnz;
    s_cval = Array.sub s.s_cval 0 nnz;
  }

(* The same LP with every objective coefficient rescaled by a factor in
   [0.5, 1.5): a revalued repeat, same shape. *)
let revalue ~seed (s : Revised.spec) =
  let g = Prng.create ~seed in
  { s with Revised.s_c = Array.map (fun c -> c *. (0.5 +. Prng.float g 1.0)) s.s_c }

(* max x1 + (1+d/2) x2 + e·Σ f_i subject to x1 + x2 <= 1,
   x1 + (1+d) x2 <= 1 + d/2 and f_i <= 1, with d = 1e-10 and e = 1e-11,
   solved at eps 1e-13.  x2 enters, then x1 with a pivot of about d, then
   the fillers; the rebuild after 64 pivots meets x1 and x2 as dependent
   columns (residual about d <= Tol.pivot_eps) and takes the unit-eta
   fallback. *)
let dependent_spec ~fillers =
  let d = 1e-10 and e = 1e-11 in
  let nstruct = 2 + fillers and m = 2 + fillers in
  {
    Revised.s_direction = Simplex.Maximize;
    s_nstruct = nstruct;
    s_m = m;
    s_c =
      Array.init nstruct (fun j ->
          if j = 0 then 1.0 else if j = 1 then 1.0 +. (d /. 2.0) else e);
    s_rel = Array.make m Simplex.Le;
    s_rhs = Array.init m (fun i -> if i = 1 then 1.0 +. (d /. 2.0) else 1.0);
    s_cstart = Array.init (nstruct + 1) (fun j -> if j <= 2 then 2 * j else 2 + j);
    s_crow = Array.init (4 + fillers) (fun p -> if p < 4 then p mod 2 else p - 2);
    s_cval = Array.init (4 + fillers) (fun p -> if p = 3 then 1.0 +. d else 1.0);
  }

(* A warm crash into the basis {A, B, D, E, fillers, slack 4} on rows 0-4
   plus one row per filler; the basis is optimal, with every basic value
   1.  The 64th crash pivot triggers a rebuild: after the fillers, A =
   (row 1: 0.1, row 3: 3) takes row 3, and B = (row 2: beta, row 3: 0.3)
   then ties exactly between row 2 (its own entry) and row 1 (fill-in
   from A's eta, appended to the touched list after row 2).  The dense
   scan takes the lower row, so the rebuild is only right if the touched
   list is back in ascending order before the pivot-row search.  D and E
   (three entries each) come last and take rows 0 and 2. *)
let tie_spec () =
  let fillers = 64 in
  let beta = 0.1 *. (0.3 /. 3.0) in
  let cols =
    [
      [ (1, 0.1); (3, 3.0) ];
      [ (2, beta); (3, 0.3) ];
      [ (0, 1.0); (1, 1.0); (2, 1.0) ];
      [ (0, 1.0); (2, 1.0); (3, 1.0) ];
    ]
    @ List.init fillers (fun f -> [ (5 + f, 1.0) ])
  in
  let m = 5 + fillers and nstruct = List.length cols in
  let cols = Array.of_list cols in
  let cstart = Array.make (nstruct + 1) 0 in
  Array.iteri (fun j c -> cstart.(j + 1) <- cstart.(j) + List.length c) cols;
  let rhs = Array.make m 0.0 in
  Array.iter (List.iter (fun (i, v) -> rhs.(i) <- rhs.(i) +. v)) cols;
  rhs.(4) <- 1.0;
  (* duals 1 on every row but 4, whose slack is basic *)
  let y i = if i = 4 then 0.0 else 1.0 in
  let spec =
    {
      Revised.s_direction = Simplex.Maximize;
      s_nstruct = nstruct;
      s_m = m;
      s_c = Array.map (List.fold_left (fun a (i, v) -> a +. (y i *. v)) 0.0) cols;
      s_rel = Array.make m Simplex.Le;
      s_rhs = rhs;
      s_cstart = cstart;
      s_crow = Array.of_list (List.concat_map (List.map fst) (Array.to_list cols));
      s_cval = Array.of_list (List.concat_map (List.map snd) (Array.to_list cols));
    }
  in
  (spec, Array.init m (fun q -> if q < nstruct then q else nstruct + 4))

(* One solve on a fresh arena, with the number of rebuilds it ran. *)
let solve ?eps ?warm_start spec =
  let r0 = Tel.counter_value refactorizations in
  let sol, basis, stats =
    Revised.solve_spec ?eps ?warm_start ~workspace:(Workspace.create ()) spec
  in
  (sol, basis, stats, Tel.counter_value refactorizations - r0)

(* Run [f] with a reporter that collects the solver's warnings. *)
let with_revised_warnings f =
  let warnings = ref [] in
  let prev_reporter = Logs.reporter () and prev_level = Logs.level () in
  let report src level ~over k msgf =
    if Logs.Src.name src = "sa.lp.revised" && level = Logs.Warning then
      msgf (fun ?header:_ ?tags:_ fmt ->
          Format.kasprintf
            (fun s ->
              warnings := s :: !warnings;
              over ();
              k ())
            fmt)
    else begin
      over ();
      k ()
    end
  in
  Logs.set_reporter { Logs.report };
  Logs.set_level (Some Logs.Warning);
  Fun.protect
    ~finally:(fun () ->
      Logs.set_reporter prev_reporter;
      Logs.set_level prev_level)
    (fun () ->
      let r = f () in
      (r, List.rev !warnings))

let close a b = Float.abs (a -. b) <= Tol.cert_eps *. Float.max 1.0 (Float.abs b)

let check_optimal_certified name spec (sol : Simplex.solution) =
  Alcotest.(check bool) (name ^ ": optimal") true (sol.status = Simplex.Optimal);
  Alcotest.(check bool)
    (name ^ ": certified") true
    (Sa_lp.Certify.check (Dense_tableau.problem_of_spec spec) sol).Sa_lp.Certify.certified

let check_matches_dense name spec (sol : Simplex.solution) =
  let dense = Dense_tableau.solve (Dense_tableau.problem_of_spec spec) in
  Alcotest.(check bool) (name ^ ": dense optimal") true (dense.status = Simplex.Optimal);
  if not (close sol.objective dense.objective) then
    Alcotest.failf "%s: objective %.12g, dense tableau %.12g" name sol.objective
      dense.objective

(* ---------- cold solves crossing the interval twice --------------------- *)

let cold_cases =
  [
    ("disk n=170 k=6", `Disk, 170, 6, 2);
    ("disk n=200 k=4", `Disk, 200, 4, 5);
    ("disk n=150 k=4", `Disk, 150, 4, 10);
    ("protocol n=150 k=4", `Protocol, 150, 4, 300);
  ]

let cold_spec (_, model, n, k, seed) =
  packing_spec ~model ~profile:Workloads.Xor_small ~n ~k ~seed

let test_cold_refactorizing () =
  List.iter
    (fun ((name, _, _, _, _) as case) ->
      let spec = cold_spec case in
      let sol, _, _, rebuilds = solve spec in
      if rebuilds < 2 then Alcotest.failf "%s: %d rebuilds, want >= 2" name rebuilds;
      check_optimal_certified name spec sol;
      check_matches_dense name spec sol)
    cold_cases

(* ---------- warm re-solve whose crash crosses the interval -------------- *)

let warm_cases =
  [ ("warm disk n=150 k=4", `Disk, 150, 4, 10); ("warm protocol n=200 k=4", `Protocol, 200, 4, 105) ]

(* The cold basis of the LP, and its revalued repeat. *)
let warm_setup (_, model, n, k, seed) =
  let spec = packing_spec ~model ~profile:Workloads.Mixed ~n ~k ~seed in
  let _, basis, _, _ = solve spec in
  (basis, revalue ~seed spec)

let test_warm_refactorizing () =
  List.iter
    (fun ((name, _, _, _, _) as case) ->
      let basis, spec = warm_setup case in
      let b = Option.get basis in
      (* Revised's rebuild interval is max(default, m/4); the crash pivots
         one eta per structural basic column *)
      let interval = max Tol.default_refactor_interval (spec.Revised.s_m / 4) in
      let structural = Array.fold_left (fun a j -> if j < spec.s_nstruct then a + 1 else a) 0 b in
      if structural <= interval then
        Alcotest.failf "%s: %d crash pivots do not cross the interval %d" name structural
          interval;
      let warm, _, stats, rebuilds = solve ~warm_start:b spec in
      Alcotest.(check bool) (name ^ ": warm basis installed") true stats.Revised.warm_used;
      if rebuilds < 2 then Alcotest.failf "%s: %d rebuilds, want >= 2" name rebuilds;
      check_optimal_certified name spec warm;
      let cold, _, _, _ = solve spec in
      if not (close warm.objective cold.objective) then
        Alcotest.failf "%s: warm objective %.12g, cold %.12g" name warm.objective
          cold.objective;
      check_matches_dense name spec warm)
    warm_cases

(* ---------- dependent basis column ------------------------------------- *)

let test_unit_eta_fallback () =
  let (sol, _, _, rebuilds), warnings =
    with_revised_warnings (fun () -> solve ~eps:1e-13 (dependent_spec ~fillers:100))
  in
  if rebuilds < 1 then Alcotest.fail "no rebuild";
  Alcotest.(check bool)
    "near-singular pivot reported" true
    (List.exists (String.starts_with ~prefix:"refactorization: near-singular pivot") warnings);
  Alcotest.(check bool) "solve terminates optimal" true (sol.Simplex.status = Simplex.Optimal)

(* ---------- golden bits ------------------------------------------------- *)

let digest_bits a =
  Digest.to_hex
    (Digest.string
       (String.concat ","
          (Array.to_list (Array.map (fun f -> Int64.to_string (Int64.bits_of_float f)) a))))

(* (case, rebuilds, pivots, objective bits, digests of the x bits, the
   dual bits and the returned basis), recorded from the dense-FTRAN eta
   file that stored every eta.  The sparse FTRAN and the omitted identity
   etas must reproduce them exactly. *)
let golden =
  [
    ("disk n=170 k=6", 2, 173, 4656963061582956147L, "f373389a7505185eefbf6f02f9879e4b",
     "4bb8c6684c28acd1cbd023ca42e86390", "108d91e0ce763e96b824a103d3cad256");
    ("disk n=200 k=4", 2, 203, 4657953690896925930L, "657b441658886ac9a4dbb822d1aea479",
     "33f24c8480838f3818ff6e0aa5a6114f", "c48f9b901441a8e92cf07393858e7584");
    ("disk n=150 k=4", 2, 155, 4656599925176376862L, "8b65215dcdfac94fd0937a9b1309cf92",
     "c0a7e3d62702936f07f4ad637d79a50c", "6d7bc63ad3bb9beb57fa54ef53408002");
    ("protocol n=150 k=4", 2, 162, 4656245125714020763L, "1765dd1656214f7751a95c7fce66fc5f",
     "0f95c2f920d2cb8114c49375bd36a247", "640ce2401ba9d827ff7c7d03c5186aca");
    ("warm disk n=150 k=4", 3, 100, 4658379810828755329L, "9e404bec1e2d803fa0b9cf41d0e12aac",
     "b8eb663defd11612c840b89bce5efd37", "0374829ed31bbeab4dfa37a42451e873");
    ("warm protocol n=200 k=4", 2, 114, 4660881131951739768L,
     "0fa7e9b2062d768e0c1ded2c60e20033", "54c60fdad9bcc1d38b0687fb03b1b838",
     "5ab28d6c96c3ca64fd6788b9210b2b2c");
    ("dependent", 1, 103, 4607182418804746188L, "a1785caff98eaa85f5400ee03887cade",
     "6950319038c053c57477aa06c4a7619d", "c1bb17a44bc2290213ce4b77f248fc80");
    ("tie", 1, 1, 4634866186446952202L, "98d4ddae32ce6371dcc9e44cfe0b3849",
     "353be1c6f2eaf241d72bfd0880d3db60", "f8bec404d7ca9c26bc146794729f883a");
  ]

let digest_basis = function
  | Some b ->
      Digest.to_hex
        (Digest.string (String.concat "," (Array.to_list (Array.map string_of_int b))))
  | None -> "none"

let test_golden_bits () =
  let runs =
    List.map
      (fun ((name, _, _, _, _) as case) -> (name, solve (cold_spec case)))
      cold_cases
    @ List.map
        (fun ((name, _, _, _, _) as case) ->
          let basis, spec = warm_setup case in
          (name, solve ?warm_start:basis spec))
        warm_cases
    @ [
        ("dependent", solve ~eps:1e-13 (dependent_spec ~fillers:100));
        (let spec, wb = tie_spec () in
         ("tie", solve ~warm_start:wb spec));
      ]
  in
  List.iter
    (fun (name, rebuilds, pivots, obj_bits, x_digest, dual_digest, basis_digest) ->
      let sol, basis, stats, got_rebuilds = List.assoc name runs in
      Alcotest.(check int) (name ^ ": rebuilds") rebuilds got_rebuilds;
      Alcotest.(check int) (name ^ ": pivots") pivots stats.Revised.iterations;
      Alcotest.(check int64)
        (name ^ ": objective bits") obj_bits
        (Int64.bits_of_float sol.Simplex.objective);
      Alcotest.(check string) (name ^ ": x bits") x_digest (digest_bits sol.Simplex.x);
      Alcotest.(check string) (name ^ ": dual bits") dual_digest (digest_bits sol.Simplex.duals);
      Alcotest.(check string) (name ^ ": basis") basis_digest (digest_basis basis))
    golden

let suite =
  [
    Alcotest.test_case "served packing LPs rebuild twice: certified, = dense" `Quick
      test_cold_refactorizing;
    Alcotest.test_case "warm crash across the interval: warm = cold" `Quick
      test_warm_refactorizing;
    Alcotest.test_case "dependent basis column takes the unit-eta fallback" `Quick
      test_unit_eta_fallback;
    Alcotest.test_case "refactorizing solves: golden bits" `Quick test_golden_bits;
  ]
