(* Edge-weighted conflict graphs: the n x n matrix, O(1) lookup, mutable
   via [set].  Row [u] holds the out-weights [w u _]. *)

type t = { size : int; weights : float array array }

let create size =
  if size < 0 then invalid_arg "Weighted.create: negative size";
  { size; weights = Array.make_matrix size size 0.0 }

let n t = t.size

let check_vertex t v =
  if v < 0 || v >= t.size then invalid_arg "Weighted: vertex out of range"

let w t u v =
  check_vertex t u;
  check_vertex t v;
  t.weights.(u).(v)

let wbar t u v = w t u v +. w t v u

let set t u v x =
  check_vertex t u;
  check_vertex t v;
  if u = v then invalid_arg "Weighted.set: self-pair";
  if x < 0.0 then invalid_arg "Weighted.set: negative weight";
  t.weights.(u).(v) <- x

let of_function size f =
  let t = create size in
  for u = 0 to size - 1 do
    for v = 0 to size - 1 do
      if u <> v then set t u v (f u v)
    done
  done;
  t

let of_graph g =
  of_function (Graph.n g) (fun u v -> if Graph.mem_edge g u v then 1.0 else 0.0)

let nnz t =
  let c = ref 0 in
  Array.iter (Array.iter (fun x -> if x > 0.0 then incr c)) t.weights;
  !c

let iter_out t u f =
  check_vertex t u;
  let row = t.weights.(u) in
  for v = 0 to t.size - 1 do
    if row.(v) > 0.0 then f v row.(v)
  done

(* Symmetrised neighbourhood of [v]: every [u] with [w̄ u v > 0], ascending,
   from one scan of [v]'s column and row.  The value passed is bitwise
   [wbar t u v]. *)
let iter_wbar t v f =
  check_vertex t v;
  let row = t.weights.(v) in
  for u = 0 to t.size - 1 do
    if u <> v then begin
      let x = t.weights.(u).(v) +. row.(u) in
      if x > 0.0 then f u x
    end
  done

let incoming t ~into set =
  List.fold_left (fun acc u -> if u = into then acc else acc +. w t u into) 0.0 set

let is_independent t set = List.for_all (fun v -> incoming t ~into:v set < 1.0) set

let copy t = { t with weights = Array.map Array.copy t.weights }
