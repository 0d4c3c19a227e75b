module Graph = Sa_graph.Graph
module Weighted = Sa_graph.Weighted
module Ordering = Sa_graph.Ordering
module Bundle = Sa_val.Bundle
module Valuation = Sa_val.Valuation

let version = 1

(* ------------------------------- writing ------------------------------- *)

let emit_graph buf g =
  Graph.iter_edges g (fun u v -> Buffer.add_string buf (Printf.sprintf "edge %d %d\n" u v));
  Buffer.add_string buf "end\n"

let emit_weighted buf wg =
  for u = 0 to Weighted.n wg - 1 do
    Weighted.iter_out wg u (fun v w ->
        Buffer.add_string buf (Printf.sprintf "w %d %d %.17g\n" u v w))
  done;
  Buffer.add_string buf "end\n"

let emit_floats buf xs =
  Array.iter (fun x -> Buffer.add_string buf (Printf.sprintf " %.17g" x)) xs

let emit_bidder buf v valuation =
  match valuation with
  | Valuation.Xor bids ->
      Buffer.add_string buf (Printf.sprintf "bidder %d xor %d\n" v (List.length bids));
      List.iter
        (fun (b, value) ->
          Buffer.add_string buf
            (Printf.sprintf "bid %d %.17g\n" (Bundle.to_int b) value))
        bids
  | Valuation.Additive values ->
      Buffer.add_string buf (Printf.sprintf "bidder %d additive" v);
      emit_floats buf values;
      Buffer.add_char buf '\n'
  | Valuation.Unit_demand values ->
      Buffer.add_string buf (Printf.sprintf "bidder %d unit-demand" v);
      emit_floats buf values;
      Buffer.add_char buf '\n'
  | Valuation.Symmetric f ->
      Buffer.add_string buf (Printf.sprintf "bidder %d symmetric" v);
      emit_floats buf f;
      Buffer.add_char buf '\n'
  | Valuation.Budget_additive { values; budget } ->
      Buffer.add_string buf (Printf.sprintf "bidder %d budget-additive %.17g" v budget);
      emit_floats buf values;
      Buffer.add_char buf '\n'
  | Valuation.Or_bids bids ->
      Buffer.add_string buf (Printf.sprintf "bidder %d or %d\n" v (List.length bids));
      List.iter
        (fun (b, value) ->
          Buffer.add_string buf
            (Printf.sprintf "bid %d %.17g\n" (Bundle.to_int b) value))
        bids

let emit_conflict buf conflict =
  match conflict with
  | Instance.Unweighted g ->
      Buffer.add_string buf "conflict unweighted\n";
      emit_graph buf g
  | Instance.Edge_weighted wg ->
      Buffer.add_string buf "conflict weighted\n";
      emit_weighted buf wg
  | Instance.Per_channel gs ->
      Buffer.add_string buf "conflict per-channel\n";
      Array.iteri
        (fun j g ->
          Buffer.add_string buf (Printf.sprintf "channel %d\n" j);
          emit_graph buf g)
        gs
  | Instance.Per_channel_weighted wgs ->
      Buffer.add_string buf "conflict per-channel-weighted\n";
      Array.iteri
        (fun j wg ->
          Buffer.add_string buf (Printf.sprintf "channel %d\n" j);
          emit_weighted buf wg)
        wgs

let instance_to_string inst =
  let buf = Buffer.create 4096 in
  let n = Instance.n inst in
  Buffer.add_string buf (Printf.sprintf "specauction-instance %d\n" version);
  Buffer.add_string buf
    (Printf.sprintf "n %d k %d rho %.17g\n" n inst.Instance.k inst.Instance.rho);
  Buffer.add_string buf "ordering";
  Array.iter
    (fun v -> Buffer.add_string buf (Printf.sprintf " %d" v))
    (Ordering.to_order inst.Instance.ordering);
  Buffer.add_char buf '\n';
  emit_conflict buf inst.Instance.conflict;
  Array.iteri
    (fun v mask ->
      if not (Bundle.equal mask (Bundle.full inst.Instance.k)) then
        Buffer.add_string buf
          (Printf.sprintf "available %d %d\n" v (Bundle.to_int mask)))
    inst.Instance.available;
  Array.iteri (fun v b -> emit_bidder buf v b) inst.Instance.bidders;
  Buffer.add_string buf "end\n";
  Buffer.contents buf

(* ------------------------------- reading ------------------------------- *)

type reader = { lines : string array; mutable pos : int }

(* [r.pos] is the 1-based number of the last line [next_line] returned (or
   of the last line of the input once it is exhausted). *)
let fail r msg =
  let detail = Printf.sprintf "line %d: %s" (max 1 r.pos) msg in
  Sa_util.Fail.raise_ (Sa_util.Fail.Malformed_job { detail })

(* Semantic checks in the constructors ([Ordering.of_order],
   [Instance.make], ...) raise [Invalid_argument]; report them at the line
   being read like the syntax errors. *)
let located r f = try f () with Invalid_argument msg -> fail r msg

let next_line r =
  let rec go () =
    if r.pos >= Array.length r.lines then None
    else begin
      let line = String.trim r.lines.(r.pos) in
      r.pos <- r.pos + 1;
      if line = "" || line.[0] = '#' then go () else Some line
    end
  in
  go ()

let expect_line r =
  match next_line r with Some l -> l | None -> fail r "unexpected end of input"

let words line = String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

let int_of r s =
  match int_of_string_opt s with Some v -> v | None -> fail r ("bad int: " ^ s)

let float_of r s =
  match float_of_string_opt s with Some v -> v | None -> fail r ("bad float: " ^ s)

let read_graph r n =
  let g = Graph.create n in
  let rec go () =
    match words (expect_line r) with
    | [ "end" ] -> g
    | [ "edge"; u; v ] ->
        Graph.add_edge g (int_of r u) (int_of r v);
        go ()
    | _ -> fail r "expected 'edge u v' or 'end'"
  in
  go ()

let read_weighted r n =
  let wg = Weighted.create n in
  let rec go () =
    match words (expect_line r) with
    | [ "end" ] -> wg
    | [ "w"; u; v; x ] ->
        Weighted.set wg (int_of r u) (int_of r v) (float_of r x);
        go ()
    | _ -> fail r "expected 'w u v x' or 'end'"
  in
  go ()

let read_per_channel r n k read_one =
  Array.init k (fun j ->
      match words (expect_line r) with
      | [ "channel"; j' ] when int_of r j' = j -> read_one r n
      | _ -> fail r (Printf.sprintf "expected 'channel %d'" j))

let read_bidders r n k first_line =
  let bidders = Array.make n (Valuation.Xor []) in
  let masks = ref [] in
  let parse_floats rest = Array.of_list (List.map (float_of r) rest) in
  let rec go line =
    match words line with
    | [ "end" ] -> ()
    | [ "available"; v; mask ] ->
        let v = int_of r v in
        if v < 0 || v >= n then fail r "availability index out of range";
        masks := (v, Bundle.of_int (int_of r mask)) :: !masks;
        go (expect_line r)
    | "bidder" :: v :: "xor" :: [ count ] ->
        let v = int_of r v and count = int_of r count in
        if v < 0 || v >= n then fail r "bidder index out of range";
        let bids =
          List.init count (fun _ ->
              match words (expect_line r) with
              | [ "bid"; mask; value ] ->
                  (Bundle.of_int (int_of r mask), float_of r value)
              | _ -> fail r "expected 'bid mask value'")
        in
        bidders.(v) <- Valuation.Xor bids;
        go (expect_line r)
    | "bidder" :: v :: "additive" :: rest ->
        bidders.(int_of r v) <- Valuation.Additive (parse_floats rest);
        go (expect_line r)
    | "bidder" :: v :: "unit-demand" :: rest ->
        bidders.(int_of r v) <- Valuation.Unit_demand (parse_floats rest);
        go (expect_line r)
    | "bidder" :: v :: "symmetric" :: rest ->
        bidders.(int_of r v) <- Valuation.Symmetric (parse_floats rest);
        go (expect_line r)
    | "bidder" :: v :: "budget-additive" :: budget :: rest ->
        bidders.(int_of r v) <-
          Valuation.Budget_additive
            { values = parse_floats rest; budget = float_of r budget };
        go (expect_line r)
    | "bidder" :: v :: "or" :: [ count ] ->
        let v = int_of r v and count = int_of r count in
        if v < 0 || v >= n then fail r "bidder index out of range";
        let bids =
          List.init count (fun _ ->
              match words (expect_line r) with
              | [ "bid"; mask; value ] ->
                  (Bundle.of_int (int_of r mask), float_of r value)
              | _ -> fail r "expected 'bid mask value'")
        in
        bidders.(v) <- Valuation.Or_bids bids;
        go (expect_line r)
    | _ -> fail r "expected a bidder declaration or 'end'"
  in
  go first_line;
  let available =
    if !masks = [] then None
    else begin
      let arr = Array.make n (Bundle.full k) in
      List.iter (fun (v, m) -> arr.(v) <- m) !masks;
      Some arr
    end
  in
  (bidders, available)

let instance_of_string s =
  let r = { lines = Array.of_list (String.split_on_char '\n' s); pos = 0 } in
  located r @@ fun () ->
  (match words (expect_line r) with
  | [ "specauction-instance"; v ] when int_of r v = version -> ()
  | _ -> fail r "bad header");
  let n, k, rho =
    match words (expect_line r) with
    | [ "n"; n; "k"; k; "rho"; rho ] -> (int_of r n, int_of r k, float_of r rho)
    | _ -> fail r "expected 'n <n> k <k> rho <rho>'"
  in
  let ordering =
    match words (expect_line r) with
    | "ordering" :: rest ->
        Ordering.of_order (Array.of_list (List.map (int_of r) rest))
    | _ -> fail r "expected 'ordering ...'"
  in
  let conflict =
    match words (expect_line r) with
    | [ "conflict"; "unweighted" ] -> Instance.Unweighted (read_graph r n)
    | [ "conflict"; "weighted" ] -> Instance.Edge_weighted (read_weighted r n)
    | [ "conflict"; "per-channel" ] ->
        Instance.Per_channel (read_per_channel r n k read_graph)
    | [ "conflict"; "per-channel-weighted" ] ->
        Instance.Per_channel_weighted (read_per_channel r n k read_weighted)
    | _ -> fail r "expected a conflict section"
  in
  let bidders, available = read_bidders r n k (expect_line r) in
  let inst = Instance.make ~conflict ~k ~bidders ~ordering ~rho in
  match available with
  | None -> inst
  | Some masks -> Instance.with_available inst masks

(* ------------------------------ allocations ----------------------------- *)

let allocation_to_string alloc =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "specauction-allocation %d\n" version);
  Buffer.add_string buf (Printf.sprintf "n %d\n" (Array.length alloc));
  Array.iteri
    (fun v b ->
      if not (Bundle.is_empty b) then
        Buffer.add_string buf (Printf.sprintf "alloc %d %d\n" v (Bundle.to_int b)))
    alloc;
  Buffer.add_string buf "end\n";
  Buffer.contents buf

let allocation_of_string s =
  let r = { lines = Array.of_list (String.split_on_char '\n' s); pos = 0 } in
  located r @@ fun () ->
  (match words (expect_line r) with
  | [ "specauction-allocation"; v ] when int_of r v = version -> ()
  | _ -> fail r "bad header");
  let n =
    match words (expect_line r) with
    | [ "n"; n ] -> int_of r n
    | _ -> fail r "expected 'n <n>'"
  in
  let alloc = Allocation.empty n in
  let rec go () =
    match words (expect_line r) with
    | [ "end" ] -> alloc
    | [ "alloc"; v; mask ] ->
        let v = int_of r v in
        if v < 0 || v >= n then fail r "bidder index out of range";
        alloc.(v) <- Bundle.of_int (int_of r mask);
        go ()
    | _ -> fail r "expected 'alloc v mask' or 'end'"
  in
  go ()

(* ------------------------------ fingerprints ----------------------------- *)

(* The cache keys digest a binary encoding, not the text format: ints as
   8-byte little-endian words, weights and ρ as their exact float bits.  A
   tag byte names each conflict kind and per-channel section, and a count
   precedes every list, so the encoding is prefix-free — tags alone are not,
   since an int's bytes can equal a tag byte (vertex 101 is 'e').  Exact
   bits key exactly what the text's %.17g does.

   The encoding is hashed in fixed-size chunks, and the key is the digest
   of the chunk digests.  A key thus allocates one minor-heap chunk and 16
   bytes per chunk, not a major-heap buffer as large as the encoding (24
   bytes per entry of a dense graph's n²). *)

(* at most [Max_young_wosize] = 256 words, so the chunk is a minor block *)
let chunk_size = 2040

type key = { chunk : Bytes.t; mutable pos : int; digests : Buffer.t }

let new_key () = { chunk = Bytes.create chunk_size; pos = 0; digests = Buffer.create 256 }

let flush k =
  Buffer.add_string k.digests (Digest.subbytes k.chunk 0 k.pos);
  k.pos <- 0

let key_int64 k x =
  if k.pos + 8 > chunk_size then flush k;
  Bytes.set_int64_le k.chunk k.pos x;
  k.pos <- k.pos + 8

let key_int k i = key_int64 k (Int64.of_int i)

let key_float k x = key_int64 k (Int64.bits_of_float x)

let key_tag k c =
  if k.pos + 1 > chunk_size then flush k;
  Bytes.set k.chunk k.pos c;
  k.pos <- k.pos + 1

let key_graph k g =
  key_int k (Graph.n g);
  key_int k (Graph.num_edges g);
  Graph.iter_edges g (fun u v ->
      key_int k u;
      key_int k v)

let key_weighted k wg =
  key_int k (Weighted.n wg);
  key_int k (Weighted.nnz wg);
  for u = 0 to Weighted.n wg - 1 do
    Weighted.iter_out wg u (fun v w ->
        key_int k u;
        key_int k v;
        key_float k w)
  done

let key_channels k key_one gs =
  key_int k (Array.length gs);
  Array.iter
    (fun g ->
      key_tag k 'c';
      key_one k g)
    gs

let key_conflict k conflict =
  match conflict with
  | Instance.Unweighted g ->
      key_tag k 'u';
      key_graph k g
  | Instance.Edge_weighted wg ->
      key_tag k 'w';
      key_weighted k wg
  | Instance.Per_channel gs ->
      key_tag k 'p';
      key_channels k key_graph gs
  | Instance.Per_channel_weighted wgs ->
      key_tag k 'q';
      key_channels k key_weighted wgs

let digest_hex k =
  if k.pos > 0 then flush k;
  Digest.to_hex (Digest.string (Buffer.contents k.digests))

let conflict_fingerprint conflict =
  let k = new_key () in
  key_conflict k conflict;
  digest_hex k

let shape_fingerprint inst =
  let k = new_key () in
  let n = Instance.n inst and nk = inst.Instance.k in
  key_int k n;
  key_int k nk;
  key_float k inst.Instance.rho;
  Array.iter (key_int k) (Ordering.to_order inst.Instance.ordering);
  key_conflict k inst.Instance.conflict;
  (* availability-filtered support masks, in the order [Lp_relaxation]
     materialises columns — this pins the LP's variable and row layout *)
  for v = 0 to n - 1 do
    let support =
      Valuation.support inst.Instance.bidders.(v) ~k:nk
      |> List.filter (fun (bundle, _) ->
             Bundle.equal bundle (Instance.restrict_bundle inst ~bidder:v bundle))
    in
    key_int k (List.length support);
    List.iter (fun (bundle, _) -> key_int k (Bundle.to_int bundle)) support
  done;
  digest_hex k

(* --------------------------------- files -------------------------------- *)

let save_instance path inst =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (instance_to_string inst))

let load_instance path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      instance_of_string (really_input_string ic len))
