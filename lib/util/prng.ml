type t = Random.State.t

let create ~seed = Random.State.make [| seed; 0x5a5a5a5a; seed lxor 0x9e3779b9 |]

let split g =
  let s0 = Random.State.bits g and s1 = Random.State.bits g in
  Random.State.make [| s0; s1; s0 lxor (s1 lsl 7) |]

let copy = Random.State.copy
let float g bound = Random.State.float g bound

let int g bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  Random.State.int g bound

let bool g = Random.State.bool g

let bernoulli g p =
  if p <= 0. then false
  else if p >= 1. then true
  else Random.State.float g 1.0 < p

let uniform_in g lo hi = lo +. Random.State.float g (hi -. lo)

let exponential g lambda =
  if lambda <= 0. then invalid_arg "Prng.exponential: lambda must be positive";
  let u = 1.0 -. Random.State.float g 1.0 in
  -.log u /. lambda

let gaussian g ~mean ~stddev =
  let u1 = 1.0 -. Random.State.float g 1.0 in
  let u2 = Random.State.float g 1.0 in
  mean +. (stddev *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let pareto g ~alpha ~xmin =
  if alpha <= 0. || xmin <= 0. then invalid_arg "Prng.pareto: parameters must be positive";
  let u = 1.0 -. Random.State.float g 1.0 in
  xmin /. (u ** (1.0 /. alpha))

let poisson g lambda =
  if lambda <= 0.0 then invalid_arg "Prng.poisson: lambda must be positive";
  let threshold = exp (-.lambda) in
  let rec go count product =
    let product = product *. Random.State.float g 1.0 in
    if product <= threshold then count else go (count + 1) product
  in
  go 0 1.0

let choose g a =
  if Array.length a = 0 then invalid_arg "Prng.choose: empty array";
  a.(Random.State.int g (Array.length a))

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation g n =
  let a = Array.init n (fun i -> i) in
  shuffle g a;
  a

let categorical g weights =
  let n = Array.length weights in
  (* Left-to-right sum, bitwise equal to [Array.fold_left (+.)]. *)
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    total := !total +. weights.(i)
  done;
  let total = !total in
  if total <= 0. then invalid_arg "Prng.categorical: weights must have positive sum";
  let target = Random.State.float g total in
  let rec scan i acc =
    if i >= n - 1 then n - 1
    else
      let acc = acc +. weights.(i) in
      if target < acc then i else scan (i + 1) acc
  in
  scan 0 0.0

let sample_without_replacement g m n =
  if m > n then invalid_arg "Prng.sample_without_replacement: m > n";
  let a = permutation g n in
  Array.sub a 0 m
