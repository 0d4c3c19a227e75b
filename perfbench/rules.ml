let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let derive_seed ~seed i =
  let z =
    Int64.add (Int64.mul (Int64.of_int seed) 0x9e3779b97f4a7c15L) (Int64.of_int i)
  in
  Int64.to_int (Int64.logand (mix64 z) 0x3fff_ffffL)

let sorted xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Rules.median: empty sample";
  let s = sorted xs in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

let tail xs =
  let n = Array.length xs in
  if n < 11 then None
  else
    let s = sorted xs in
    Some (100.0 *. float_of_int (n - 10) /. float_of_int n, s.(n - 11))

let valid_metric_name s =
  let alnum c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  in
  let n = String.length s in
  n >= 1 && n <= 64 && alnum s.[0]
  && String.for_all (fun c -> alnum c || c = '_' || c = '.' || c = '-') s

let json_number x =
  if not (Float.is_finite x) then invalid_arg "Rules.json_number: not finite";
  let short = Printf.sprintf "%.15g" x in
  if float_of_string short = x then short else Printf.sprintf "%.17g" x
