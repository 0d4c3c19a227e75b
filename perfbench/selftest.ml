(* Checks of the benchmark's own helpers; run by [dune runtest]. *)

module R = Perfbench_rules.Rules

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let () =
  (* seed derivation: deterministic, in range, pinned, and distinct across
     the batches of a run and across the seeds of a measurement series *)
  check "derive_seed deterministic"
    (R.derive_seed ~seed:7 3 = R.derive_seed ~seed:7 3);
  check "derive_seed pinned" (R.derive_seed ~seed:1 0 = 0x3b1dcdaf);
  let in_range v = v >= 0 && v < 1 lsl 30 in
  let batches = List.init 64 (fun i -> R.derive_seed ~seed:42 i) in
  check "derive_seed range" (List.for_all in_range batches);
  check "derive_seed distinct batches"
    (List.length (List.sort_uniq compare batches) = 64);
  let seeds = List.init 100 (fun s -> R.derive_seed ~seed:s 0) in
  check "derive_seed distinct seeds"
    (List.length (List.sort_uniq compare seeds) = 100);
  check "derive_seed negative seed" (in_range (R.derive_seed ~seed:(-5) 2));
  (* tail rule: the highest percentile with at least 10 samples beyond *)
  check "tail needs 11 samples"
    (R.tail (Array.init 10 float_of_int) = None);
  check "tail of 11 is the minimum"
    (R.tail (Array.init 11 (fun i -> float_of_int (10 - i))) = Some (100.0 /. 11.0, 0.0));
  let xs = Array.init 100 (fun i -> float_of_int ((i * 37) mod 100)) in
  (match R.tail xs with
  | Some (p, v) ->
      check "tail of 100 is p90" (p = 90.0 && v = 89.0);
      check "tail leaves exactly 10 beyond"
        (Array.fold_left (fun n x -> if x > v then n + 1 else n) 0 xs = 10)
  | None -> check "tail of 100 exists" false);
  check "tail does not mutate" (xs.(1) = 37.0);
  (* median *)
  check "median odd" (R.median [| 3.0; 1.0; 2.0 |] = 2.0);
  check "median even" (R.median [| 4.0; 1.0; 3.0; 2.0 |] = 2.5);
  (* metric names *)
  List.iter
    (fun s -> check ("name ok " ^ s) (R.valid_metric_name s))
    [ "setup_s"; "lp.us_per_pivot"; "geo-repeat"; "0x"; String.make 64 'a' ];
  List.iter
    (fun s -> check ("name rejected " ^ String.escaped s) (not (R.valid_metric_name s)))
    [ ""; "_x"; ".x"; "-x"; "a b"; "a/b"; "ms\n"; "é"; String.make 65 'a' ];
  (* JSON numbers round-trip and refuse what JSON cannot carry *)
  List.iter
    (fun x -> check "json_number round-trips" (float_of_string (R.json_number x) = x))
    [ 0.1; 1.0 /. 3.0; 1e-9; 123456.789; 2.0 ];
  check "json_number rejects nan"
    (match R.json_number Float.nan with
    | _ -> false
    | exception Invalid_argument _ -> true);
  if !failures > 0 then exit 1;
  print_endline "perfbench selftest: ok"
