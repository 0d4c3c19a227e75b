(* Tests for the plain-text instance/allocation (de)serialization. *)

module Prng = Sa_util.Prng
module Bundle = Sa_val.Bundle
module Valuation = Sa_val.Valuation
module Instance = Sa_core.Instance
module Allocation = Sa_core.Allocation
module Serialize = Sa_core.Serialize
module Workloads = Sa_exp.Workloads

(* Structural equality of instances via their observable behaviour: sizes,
   parameters, pairwise conflict weights on all channels, valuations on all
   bundles (k is small in the fixtures). *)
let instances_equal a b =
  let n = Instance.n a and k = a.Instance.k in
  Instance.n b = n
  && b.Instance.k = k
  && Float.abs (a.Instance.rho -. b.Instance.rho) < 1e-12
  && Sa_graph.Ordering.to_order a.Instance.ordering
     = Sa_graph.Ordering.to_order b.Instance.ordering
  &&
  let weights_equal = ref true in
  for j = 0 to k - 1 do
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        if u <> v then
          if
            Float.abs
              (Instance.wbar a ~channel:j u v -. Instance.wbar b ~channel:j u v)
            > 1e-12
          then weights_equal := false
      done
    done
  done;
  let values_equal = ref true in
  List.iter
    (fun mask ->
      let bundle = Bundle.of_int mask in
      for v = 0 to n - 1 do
        if
          Float.abs
            (Valuation.value a.Instance.bidders.(v) bundle
            -. Valuation.value b.Instance.bidders.(v) bundle)
          > 1e-12
        then values_equal := false
      done)
    (List.map Bundle.to_int (Bundle.all_subsets k));
  !weights_equal && !values_equal

let roundtrip inst =
  Serialize.instance_of_string (Serialize.instance_to_string inst)

let test_roundtrip_unweighted () =
  let inst = Workloads.protocol_instance ~seed:11 ~n:12 ~k:3 () in
  Alcotest.(check bool) "roundtrip equal" true (instances_equal inst (roundtrip inst))

let test_roundtrip_weighted () =
  let inst, _ =
    Workloads.sinr_fixed_instance ~seed:12 ~n:10 ~k:2
      ~scheme:Sa_wireless.Sinr.Uniform ()
  in
  Alcotest.(check bool) "roundtrip equal" true (instances_equal inst (roundtrip inst))

let test_roundtrip_per_channel () =
  let inst = Workloads.asymmetric_instance ~seed:13 ~n:12 ~k:3 ~d:4 in
  Alcotest.(check bool) "roundtrip equal" true (instances_equal inst (roundtrip inst))

let test_roundtrip_per_channel_weighted () =
  let inst, _ = Workloads.asymmetric_weighted_instance ~seed:14 ~n:8 ~k:2 () in
  Alcotest.(check bool) "roundtrip equal" true (instances_equal inst (roundtrip inst))

let test_roundtrip_all_languages () =
  let graph = Sa_graph.Graph.of_edges 6 [ (0, 1); (2, 3); (4, 5) ] in
  let bidders =
    [|
      Valuation.Xor [ (Bundle.of_list [ 0 ], 3.5); (Bundle.of_list [ 0; 1 ], 5.25) ];
      Valuation.Additive [| 1.0; 2.0 |];
      Valuation.Unit_demand [| 4.0; 0.5 |];
      Valuation.Symmetric [| 0.0; 2.0; 3.0 |];
      Valuation.Budget_additive { values = [| 2.0; 3.0 |]; budget = 4.0 };
      Valuation.Or_bids [ (Bundle.singleton 0, 1.5); (Bundle.singleton 1, 2.5) ];
    |]
  in
  let inst =
    Instance.make ~conflict:(Instance.Unweighted graph) ~k:2 ~bidders
      ~ordering:(Sa_graph.Ordering.identity 6) ~rho:1.0
  in
  Alcotest.(check bool) "roundtrip equal" true (instances_equal inst (roundtrip inst))

let test_lp_value_survives () =
  (* End-to-end: the LP optimum of a reloaded instance is identical. *)
  let inst = Workloads.protocol_instance ~seed:15 ~n:12 ~k:2 () in
  let a = (Sa_core.Lp_relaxation.solve_explicit inst).Sa_core.Lp_relaxation.objective in
  let b =
    (Sa_core.Lp_relaxation.solve_explicit (roundtrip inst)).Sa_core.Lp_relaxation.objective
  in
  Alcotest.(check (float 1e-9)) "same LP optimum" a b

let test_allocation_roundtrip () =
  let alloc = Allocation.empty 5 in
  alloc.(1) <- Bundle.of_list [ 0; 2 ];
  alloc.(4) <- Bundle.of_list [ 1 ];
  let alloc' = Serialize.allocation_of_string (Serialize.allocation_to_string alloc) in
  Alcotest.(check bool) "equal" true (alloc = alloc')

let test_file_roundtrip () =
  let inst = Workloads.disk_instance ~seed:16 ~n:10 ~k:2 () in
  let path = Filename.temp_file "specauction" ".inst" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serialize.save_instance path inst;
      Alcotest.(check bool) "file roundtrip" true
        (instances_equal inst (Serialize.load_instance path)))

let test_malformed_rejected () =
  (* every malformed input is a structured [Malformed_job] naming its line *)
  let check_fails name ?(parse = fun s -> ignore (Serialize.instance_of_string s)) s
      ~line =
    match parse s with
    | exception Sa_util.Fail.Error (Sa_util.Fail.Malformed_job { detail }) ->
        let prefix = Printf.sprintf "line %d: " line in
        if not (String.starts_with ~prefix detail) then
          Alcotest.failf "%s: detail %S does not start with %S" name detail prefix
    | () -> Alcotest.failf "%s: malformed input accepted" name
  in
  let header = "specauction-instance 1\nn 2 k 1 rho 1\n" in
  check_fails "empty" "" ~line:1;
  check_fails "blank lines only" "\n\n" ~line:3;
  check_fails "bad header" "nonsense 1\n" ~line:1;
  check_fails "bad version" "specauction-instance 99\n" ~line:1;
  check_fails "truncated" (header ^ "ordering 0 1\nconflict unweighted\n") ~line:5;
  check_fails "bad edge"
    (header ^ "ordering 0 1\nconflict unweighted\nedge 0 x\nend\nend\n")
    ~line:5;
  check_fails "not a permutation" (header ^ "ordering 0 0\n") ~line:3;
  check_fails "bad allocation header" "specauction-allocation 1\nn x\n" ~line:2
    ~parse:(fun s -> ignore (Serialize.allocation_of_string s))

(* The text writer walks each row's positive entries; the reference is the
   full n² lookup loop it replaced, which must give the same bytes (the
   diagonal is always zero). *)
let reference_weighted_text wg =
  let buf = Buffer.create 4096 in
  let n = Sa_graph.Weighted.n wg in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v then begin
        let w = Sa_graph.Weighted.w wg u v in
        if w > 0.0 then Buffer.add_string buf (Printf.sprintf "w %d %d %.17g\n" u v w)
      end
    done
  done;
  Buffer.add_string buf "end\n";
  Buffer.contents buf

(* The lines from after "conflict weighted" through its "end". *)
let weighted_section text =
  let rec drop = function
    | [] -> []
    | "conflict weighted" :: rest -> rest
    | _ :: rest -> drop rest
  in
  let rec take acc = function
    | [] -> List.rev acc
    | "end" :: _ -> List.rev ("end\n" :: acc)
    | l :: rest -> take ((l ^ "\n") :: acc) rest
  in
  String.concat "" (take [] (drop (String.split_on_char '\n' text)))

let test_weighted_text_pinned () =
  let inst, _, _ =
    Workloads.sinr_powercontrol_instance ~seed:17 ~n:40 ~k:2 ~weight_scale:1.0 ()
  in
  let wg =
    match inst.Instance.conflict with
    | Instance.Edge_weighted wg -> wg
    | _ -> Alcotest.fail "not edge-weighted"
  in
  let section = weighted_section (Serialize.instance_to_string inst) in
  Alcotest.(check bool) "has entries" true (String.length section > 100);
  Alcotest.(check string) "weights" (reference_weighted_text wg) section

(* Golden cache keys: the exact hex digests of the conflict and shape
   fingerprints of one instance per served conflict family.  Relative key
   tests (equal / different) cannot see a change to the keyed bytes that
   moves every key at once; this one does, and such a change would
   silently cold-start the topology, basis and column-pool caches. *)
let test_golden_cache_keys () =
  let check what inst ~conflict ~shape =
    Alcotest.(check string)
      (what ^ " conflict key") conflict
      (Serialize.conflict_fingerprint inst.Instance.conflict);
    Alcotest.(check string) (what ^ " shape key") shape (Serialize.shape_fingerprint inst)
  in
  check "disk"
    (Workloads.disk_instance ~seed:5 ~n:30 ~k:3 ())
    ~conflict:"ba83e8d8ccd21cee42eb4e6bf2cf3bc8"
    ~shape:"a01586ea1403bc09a2589070e2d10ece";
  check "protocol"
    (Workloads.protocol_instance ~seed:6 ~n:30 ~k:3 ())
    ~conflict:"3881db2cb904bbe6dd43574ca59ee6a0"
    ~shape:"b9d5a47bdf1d0bf290e76f28f214aaf9";
  check "sinr prop11"
    (fst
       (Workloads.sinr_fixed_instance ~seed:7 ~n:20 ~k:2
          ~scheme:Sa_wireless.Sinr.Uniform ()))
    ~conflict:"4f01827e9a7af1dc7b2145df021ca728"
    ~shape:"034d03cbed2ad06802db7c174da8a6e6";
  check "per-channel weighted"
    (fst (Workloads.asymmetric_weighted_instance ~seed:8 ~n:15 ~k:3 ()))
    ~conflict:"e702e79f2347f951483e20cf0925175b"
    ~shape:"41e2200489288681f73b5cf825509e51"

let prop_roundtrip_random =
  QCheck.Test.make ~name:"serialize roundtrip (random protocol instances)"
    ~count:20
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let inst = Workloads.protocol_instance ~seed ~n:10 ~k:2 () in
      instances_equal inst (roundtrip inst))

let suite =
  [
    Alcotest.test_case "roundtrip unweighted" `Quick test_roundtrip_unweighted;
    Alcotest.test_case "roundtrip edge-weighted" `Quick test_roundtrip_weighted;
    Alcotest.test_case "roundtrip per-channel" `Quick test_roundtrip_per_channel;
    Alcotest.test_case "roundtrip per-channel-weighted" `Quick test_roundtrip_per_channel_weighted;
    Alcotest.test_case "roundtrip all bidding languages" `Quick test_roundtrip_all_languages;
    Alcotest.test_case "LP value survives reload" `Quick test_lp_value_survives;
    Alcotest.test_case "allocation roundtrip" `Quick test_allocation_roundtrip;
    Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
    Alcotest.test_case "malformed inputs rejected" `Quick test_malformed_rejected;
    QCheck_alcotest.to_alcotest prop_roundtrip_random;
    Alcotest.test_case "weighted text pinned to the n^2 loop" `Quick test_weighted_text_pinned;
    Alcotest.test_case "golden cache keys" `Quick test_golden_cache_keys;
  ]
