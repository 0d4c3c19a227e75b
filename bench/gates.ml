(* Timing gates: four comparisons of a production kernel against the
   simpler code it replaced, each of which must come out at >= 1.0x.

   - bitset: [Graph.is_independent] on the packed bitset graph against a
     dense bool matrix, certifying 300 greedy independent sets (n = 200);
   - grid: [Disk.conflict_graph] against the all-pairs construction on
     n = 1000 random disks;
   - pool: [Pool.map_array] against spawning domains on every call, 60
     calls over 64 small items on 4 domains;
   - scaling: demand-oracle colgen plus parallel rounding at d domains
     against one domain, on a mixed-language protocol instance (n = 200,
     k = 10).  d is the recommended domain count when that is 2 or 3, else
     4; on a host that recommends one domain the gate is skipped, because
     domains beyond the core count wait on descheduled peers and the
     comparison would measure the host, not the fan-out.

   Each gate also checks that both sides computed the same thing.  Results
   parity in general lives in [dune runtest]; these gates only guard speed.
   Prints one line per gate and exits 1 naming the first gate that failed.

   Run with: dune exec bench/gates.exe *)

module Prng = Sa_util.Prng
module Timing = Sa_util.Timing
module Graph = Sa_graph.Graph
module Disk = Sa_wireless.Disk
module Point = Sa_geom.Point
module Pool = Sa_core.Pool

type verdict = { name : string; speedup : float; agree : bool; detail : string }

(* ---- bitset: packed rows vs a dense matrix ------------------------------- *)

(* Naive dense adjacency reference (the pre-bitset representation), kept
   here so the gate always compares against the same baseline regardless
   of how lib/graph evolves. *)
let dense_matrix g =
  let n = Graph.n g in
  let m = Array.make_matrix n n false in
  Graph.iter_edges g (fun u v ->
      m.(u).(v) <- true;
      m.(v).(u) <- true);
  m

let dense_is_independent m set =
  List.for_all
    (fun u -> List.for_all (fun v -> u = v || not m.(u).(v)) set)
    set

(* Greedy max-weight independent set on the bitset rows: the sets to
   certify.  Checking a set that IS independent admits no early exit, so
   the dense reference pays the full O(|S|^2) scan. *)
let bitset_greedy graph weights =
  let n = Array.length weights in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare weights.(b) weights.(a)) order;
  let chosen = ref [] in
  let mask = Graph.mask_create graph in
  Array.iter
    (fun v ->
      if weights.(v) > 0.0 && not (Graph.row_intersects graph v mask) then begin
        Sa_graph.Bitset.add mask v;
        chosen := v :: !chosen
      end)
    order;
  !chosen

let bitset_gate () =
  let n = 200 and reps = 300 in
  let g = Prng.create ~seed:11 in
  let graph = Sa_graph.Generators.random_bounded_degree g ~n ~d:10 in
  let m = dense_matrix graph in
  let sets =
    Array.init reps (fun _ -> Array.init n (fun _ -> Prng.float g 10.0))
    |> Array.map (bitset_greedy graph)
  in
  let dense, dense_s = Timing.time (fun () -> Array.map (dense_is_independent m) sets) in
  let bitset, bitset_s = Timing.time (fun () -> Array.map (Graph.is_independent graph) sets) in
  { name = "bitset is_independent >= dense"; speedup = dense_s /. bitset_s;
    agree = dense = bitset;
    detail = Printf.sprintf "n=%d, %d sets: dense %.4fs, bitset %.4fs" n reps dense_s bitset_s }

(* ---- grid: disk construction vs all pairs -------------------------------- *)

(* All-pairs reference, kept here so the comparison baseline stays fixed
   regardless of how the library constructors evolve. *)
let naive_disk_graph disks =
  let n = Disk.n disks in
  let g = Graph.create n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if
        Point.dist (Disk.point disks i) (Disk.point disks j)
        < Disk.radius disks i +. Disk.radius disks j
      then Graph.add_edge g i j
    done
  done;
  g

let grid_gate () =
  let n = 1000 in
  let g = Prng.create ~seed:31 in
  let side = 4.0 *. sqrt (float_of_int n) in
  let disks = Disk.random g ~n ~side ~rmin:0.5 ~rmax:1.5 in
  let reps = max 1 (4000 / n) in
  let repeat build () =
    let last = ref (build disks) in
    for _ = 2 to reps do
      last := build disks
    done;
    !last
  in
  let naive, naive_s = Timing.time (repeat naive_disk_graph) in
  let grid, grid_s = Timing.time (repeat Disk.conflict_graph) in
  { name = "grid disk construction >= naive"; speedup = naive_s /. grid_s;
    agree = Graph.edges naive = Graph.edges grid;
    detail = Printf.sprintf "n=%d x%d: naive %.4fs, grid %.4fs" n reps naive_s grid_s }

(* ---- pool: persistent domains vs spawn per call -------------------------- *)

(* The pre-pool fan-out (spawn d-1 domains per call, static
   striding, option-boxed results), kept verbatim here so the baseline
   stays fixed regardless of how lib/core evolves. *)
let spawn_map_array ~domains f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else
    let d = min domains n in
    if d = 1 then Array.map f arr
    else begin
      let results = Array.make n None in
      let worker shard () =
        let i = ref shard in
        while !i < n do
          results.(!i) <- Some (f arr.(!i));
          i := !i + d
        done
      in
      let doms = List.init (d - 1) (fun s -> Domain.spawn (worker (s + 1))) in
      worker 0 ();
      List.iter Domain.join doms;
      Array.map (function Some v -> v | None -> assert false) results
    end

let pool_gate () =
  let domains = 4 and calls = 60 in
  let arr = Array.init 64 (fun i -> i) in
  let f x =
    let acc = ref x in
    for j = 1 to 60 do
      acc := ((!acc * 31) + j) land 0xFFFFFF
    done;
    !acc
  in
  let expected = Array.map f arr in
  (* throwaway: warm up code paths and park the pool workers *)
  ignore (spawn_map_array ~domains f arr);
  ignore (Pool.map_array ~domains f arr);
  let parity = ref true in
  let per_call map =
    let s =
      Timing.time_only (fun () ->
          for _ = 1 to calls do
            if map f arr <> expected then parity := false
          done)
    in
    s *. 1e6 /. float_of_int calls
  in
  let spawn_us = per_call (fun f a -> spawn_map_array ~domains f a) in
  let pool_us = per_call (fun f a -> Pool.map_array ~domains f a) in
  { name = "pool >= spawn-per-call"; speedup = spawn_us /. pool_us; agree = !parity;
    detail = Printf.sprintf "d=%d, %d calls: spawn %.1f us, pool %.1f us" domains calls
        spawn_us pool_us }

(* ---- scaling: colgen + rounding at d domains vs one ---------------------- *)

let scaling_gate ~domains () =
  let inst =
    Sa_exp.Workloads.protocol_instance ~seed:17 ~n:200 ~k:10
      ~profile:Sa_exp.Workloads.Mixed ()
  in
  let pass dom () =
    let frac, _ = Sa_core.Oracle_solver.solve ~max_rounds:8 ~domains:dom inst in
    ignore (Sa_core.Rounding.solve_par ~domains:dom ~trials:8 ~seed:23 inst frac);
    frac.Sa_core.Lp_relaxation.objective
  in
  (* fastest of three passes: one pass is a few hundred ms on a shared
     host, where a single timing is too noisy to compare domain counts *)
  let best dom =
    let runs = List.init 3 (fun _ -> Timing.time (pass dom)) in
    (fst (List.hd runs), List.fold_left (fun b (_, s) -> Float.min b s) infinity runs)
  in
  (* untimed warm-up, so the first measured one-domain pass does not pay
     for cold code and an empty heap *)
  ignore (pass 1 ());
  let obj1, d1_s = best 1 in
  let objn, dn_s = best domains in
  { name = Printf.sprintf "colgen+rounding d%d >= d1" domains; speedup = d1_s /. dn_s;
    agree = Int64.bits_of_float obj1 = Int64.bits_of_float objn;
    detail = Printf.sprintf "n=200 k=10: d1 %.3fs, d%d %.3fs" d1_s domains dn_s }

let () =
  let recommended = Domain.recommended_domain_count () in
  let domains = if recommended > 1 && recommended < 4 then recommended else 4 in
  let gates =
    [ bitset_gate; grid_gate; pool_gate ]
    @ if recommended > 1 then [ scaling_gate ~domains ] else []
  in
  let failed =
    List.filter_map
      (fun gate ->
        let v = gate () in
        let ok = v.agree && v.speedup >= 1.0 in
        Printf.printf "%s %s: %.2fx (%s)%s\n%!" (if ok then "ok  " else "FAIL") v.name
          v.speedup v.detail (if v.agree then "" else ", results differ");
        if ok then None else Some v.name)
      gates
  in
  if recommended <= 1 then
    Printf.printf "skip colgen+rounding scaling: recommended_domains=%d\n" recommended;
  match failed with
  | [] -> ()
  | first :: _ ->
      Printf.eprintf "gates: %s failed\n" first;
      exit 1
