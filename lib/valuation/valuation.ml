type t =
  | Xor of (Bundle.t * float) list
  | Additive of float array
  | Unit_demand of float array
  | Symmetric of float array
  | Budget_additive of { values : float array; budget : float }
  | Or_bids of (Bundle.t * float) list

(* Max-weight packing of pairwise-disjoint bids with non-negative weights;
   [eligible] filters the usable bids.  Exact DFS with a remaining-weight
   bound — fine for the <= 20 atomic bids [validate] accepts. *)
let best_packing bids ~weight ~eligible =
  let usable =
    List.filter eligible bids
    |> List.filter (fun b -> weight b > 0.0)
    |> List.sort (fun a b -> compare (weight b) (weight a))
  in
  let rec go used acc remaining rem_total best =
    let best = Float.max best acc in
    match remaining with
    | [] -> best
    | ((bundle, _) as bid) :: rest ->
        if acc +. rem_total <= best then best
        else begin
          let best =
            if Bundle.intersects bundle used then best
            else go (Bundle.union used bundle) (acc +. weight bid) rest
                   (rem_total -. weight bid) best
          in
          go used acc rest (rem_total -. weight bid) best
        end
  in
  let total = List.fold_left (fun a b -> a +. weight b) 0.0 usable in
  go Bundle.empty 0.0 usable total 0.0

(* The demand-optimal bundle: greedy reconstruction is fiddly, so rerun the
   DFS tracking the argmax set. *)
let best_packing_set bids ~weight ~eligible =
  let usable =
    List.filter eligible bids
    |> List.filter (fun b -> weight b > 0.0)
    |> List.sort (fun a b -> compare (weight b) (weight a))
  in
  let best_v = ref 0.0 and best_set = ref Bundle.empty in
  let rec go used acc remaining rem_total =
    if acc > !best_v then begin
      best_v := acc;
      best_set := used
    end;
    match remaining with
    | [] -> ()
    | ((bundle, _) as bid) :: rest ->
        if acc +. rem_total > !best_v then begin
          if not (Bundle.intersects bundle used) then
            go (Bundle.union used bundle) (acc +. weight bid) rest
              (rem_total -. weight bid);
          go used acc rest (rem_total -. weight bid)
        end
  in
  let total = List.fold_left (fun a b -> a +. weight b) 0.0 usable in
  go Bundle.empty 0.0 usable total;
  (!best_set, !best_v)

let validate t ~k =
  if k < 0 || k > Bundle.max_channels then invalid_arg "Valuation.validate: bad k";
  let check_channel_array name a =
    if Array.length a <> k then
      invalid_arg (Printf.sprintf "Valuation.validate: %s needs length k" name);
    Array.iter (fun v -> if v < 0.0 then invalid_arg "Valuation.validate: negative value") a
  in
  match t with
  | Xor bids ->
      List.iter
        (fun (b, v) ->
          if v < 0.0 then invalid_arg "Valuation.validate: negative bid value";
          if not (Bundle.subset b (Bundle.full k)) then
            invalid_arg "Valuation.validate: bid uses channel >= k";
          if Bundle.is_empty b && not (v <= 0.0) then
            invalid_arg "Valuation.validate: positive or NaN value on empty bundle")
        bids
  | Additive values -> check_channel_array "Additive" values
  | Unit_demand values -> check_channel_array "Unit_demand" values
  | Symmetric f ->
      if Array.length f <> k + 1 then
        invalid_arg "Valuation.validate: Symmetric needs length k+1";
      if f.(0) <> 0.0 then invalid_arg "Valuation.validate: Symmetric f(0) must be 0";
      Array.iter (fun v -> if v < 0.0 then invalid_arg "Valuation.validate: negative value") f
  | Budget_additive { values; budget } ->
      check_channel_array "Budget_additive" values;
      if not (budget >= 0.0) then invalid_arg "Valuation.validate: negative or NaN budget"
  | Or_bids bids ->
      if List.length bids > 20 then
        invalid_arg "Valuation.validate: Or_bids limited to 20 atomic bids";
      List.iter
        (fun (b, v) ->
          if v < 0.0 then invalid_arg "Valuation.validate: negative bid value";
          if not (Bundle.subset b (Bundle.full k)) then
            invalid_arg "Valuation.validate: bid uses channel >= k";
          if Bundle.is_empty b && v > 0.0 then
            invalid_arg "Valuation.validate: positive value on empty bundle")
        bids

let value t bundle =
  match t with
  | Xor bids ->
      List.fold_left
        (fun acc (b, v) -> if Bundle.subset b bundle then Float.max acc v else acc)
        0.0 bids
  | Additive values ->
      Bundle.fold (fun j acc -> acc +. values.(j)) bundle 0.0
  | Unit_demand values ->
      Bundle.fold (fun j acc -> Float.max acc values.(j)) bundle 0.0
  | Symmetric f ->
      let m = Bundle.card bundle in
      if m < Array.length f then f.(m) else f.(Array.length f - 1)
  | Budget_additive { values; budget } ->
      Float.min budget (Bundle.fold (fun j acc -> acc +. values.(j)) bundle 0.0)
  | Or_bids bids ->
      best_packing bids ~weight:snd ~eligible:(fun (b, _) -> Bundle.subset b bundle)

let price_of prices bundle = Bundle.fold (fun j acc -> acc +. prices.(j)) bundle 0.0

let demand t ~prices =
  Array.iter
    (fun p -> if p < -1e-12 then invalid_arg "Valuation.demand: negative price")
    prices;
  match t with
  | Xor bids ->
      List.fold_left
        (fun (best_b, best_u) (b, v) ->
          let u = v -. price_of prices b in
          if u > best_u then (b, u) else (best_b, best_u))
        (Bundle.empty, 0.0) bids
  | Additive values ->
      let bundle = ref Bundle.empty and util = ref 0.0 in
      Array.iteri
        (fun j v ->
          if v > prices.(j) then begin
            bundle := Bundle.add j !bundle;
            util := !util +. (v -. prices.(j))
          end)
        values;
      (!bundle, !util)
  | Unit_demand values ->
      let best = ref (Bundle.empty, 0.0) in
      Array.iteri
        (fun j v ->
          let u = v -. prices.(j) in
          if u > snd !best then best := (Bundle.singleton j, u))
        values;
      !best
  | Symmetric f ->
      let k = Array.length prices in
      let order = Array.init k (fun j -> j) in
      Array.sort (fun a b -> compare prices.(a) prices.(b)) order;
      let best = ref (Bundle.empty, 0.0) in
      let bundle = ref Bundle.empty and cost = ref 0.0 in
      Array.iteri
        (fun i j ->
          bundle := Bundle.add j !bundle;
          cost := !cost +. prices.(j);
          let m = i + 1 in
          let v = if m < Array.length f then f.(m) else f.(Array.length f - 1) in
          let u = v -. !cost in
          if u > snd !best then best := (!bundle, u))
        order;
      !best
  | Budget_additive { values; budget } ->
      (* Exact by enumeration over the positive-value channels (min-knapsack
         is NP-hard; the oracle contract allows any exact procedure). *)
      let relevant =
        Array.to_list (Array.mapi (fun j v -> (j, v)) values)
        |> List.filter (fun (_, v) -> v > 0.0)
        |> List.map fst
      in
      if List.length relevant > 14 then
        invalid_arg "Valuation.demand: Budget_additive limited to 14 positive channels";
      let rec enumerate chosen remaining best =
        match remaining with
        | [] ->
            let value =
              Float.min budget
                (Bundle.fold (fun j acc -> acc +. values.(j)) chosen 0.0)
            in
            let u = value -. Bundle.fold (fun j acc -> acc +. prices.(j)) chosen 0.0 in
            if u > snd best then (chosen, u) else best
        | j :: rest ->
            let best = enumerate (Bundle.add j chosen) rest best in
            enumerate chosen rest best
      in
      enumerate Bundle.empty relevant (Bundle.empty, 0.0)
  | Or_bids bids ->
      (* utility decomposes over disjoint bids: weight = v - p(B) *)
      best_packing_set bids
        ~weight:(fun (b, v) -> v -. price_of prices b)
        ~eligible:(fun _ -> true)

let max_value t ~k =
  match t with
  | Xor bids -> List.fold_left (fun acc (_, v) -> Float.max acc v) 0.0 bids
  | Additive values -> Array.fold_left ( +. ) 0.0 values
  | Unit_demand values -> Array.fold_left Float.max 0.0 values
  | Symmetric f -> Array.fold_left Float.max 0.0 f
  | Budget_additive { values; budget } ->
      Float.min budget (Array.fold_left ( +. ) 0.0 values)
  | Or_bids bids -> best_packing bids ~weight:snd ~eligible:(fun _ -> true)
  |> fun v ->
  ignore k;
  v

let enumeration_cap = 14

let support t ~k =
  match t with
  | Xor bids ->
      List.filter (fun (b, v) -> (not (Bundle.is_empty b)) && v > 0.0) bids
  | Additive _ | Unit_demand _ | Symmetric _ | Budget_additive _ | Or_bids _ ->
      if k > enumeration_cap then
        invalid_arg
          "Valuation.support: enumeration only up to k = 14; use the demand \
           oracle (column generation) instead";
      Bundle.all_nonempty_subsets k
      |> List.filter_map (fun b ->
             let v = value t b in
             if v > 0.0 then Some (b, v) else None)

let scale t factor =
  if factor < 0.0 then invalid_arg "Valuation.scale: negative factor";
  match t with
  | Xor bids -> Xor (List.map (fun (b, v) -> (b, v *. factor)) bids)
  | Additive values -> Additive (Array.map (fun v -> v *. factor) values)
  | Unit_demand values -> Unit_demand (Array.map (fun v -> v *. factor) values)
  | Symmetric f -> Symmetric (Array.map (fun v -> v *. factor) f)
  | Budget_additive { values; budget } ->
      Budget_additive
        { values = Array.map (fun v -> v *. factor) values; budget = budget *. factor }
  | Or_bids bids -> Or_bids (List.map (fun (b, v) -> (b, v *. factor)) bids)

let pp fmt = function
  | Xor bids -> Format.fprintf fmt "xor(%d bids)" (List.length bids)
  | Additive _ -> Format.pp_print_string fmt "additive"
  | Unit_demand _ -> Format.pp_print_string fmt "unit-demand"
  | Symmetric _ -> Format.pp_print_string fmt "symmetric"
  | Budget_additive _ -> Format.pp_print_string fmt "budget-additive"
  | Or_bids bids -> Format.fprintf fmt "or(%d bids)" (List.length bids)
