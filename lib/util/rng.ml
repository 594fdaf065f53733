type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix64 (Int64.of_int seed) }

let copy t = { state = t.state }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = bits64 t }

(* FNV-1a over the name, folded into the parent state without advancing it. *)
let split_named t name =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    name;
  { state = mix64 (Int64.logxor t.state !h) }

let int t bound =
  assert (bound > 0);
  let r = Int64.to_int (bits64 t) land max_int in
  r mod bound

let float t bound =
  (* 53 random bits scaled to [0, 1), then to [0, bound). *)
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  float_of_int r /. 9007199254740992.0 *. bound

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t p =
  if p <= 0.0 then false else if p >= 1.0 then true else float t 1.0 < p

let choose t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

(* [cumul.(i)] is [w.(0) +. ... +. w.(i)], accumulated left to right from
   [0.0] — the exact float sums the linear scan "pick the first [i < n-1]
   with [x < w.(0) +. ... +. w.(i)], else [n-1]" compares [x] against, and
   [cumul.(n-1)] is the total that scales [x]. Adding non-negative floats
   never decreases a sum, so [x < cumul.(i)] is monotone in [i] and a
   binary search finds the same first index. *)
type sampler = float array

let sampler w =
  let n = Array.length w in
  let cumul = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. w.(i);
    cumul.(i) <- !acc
  done;
  assert (n > 0 && !acc > 0.0);
  cumul

let sample t cumul =
  let n = Array.length cumul in
  let x = float t cumul.(n - 1) in
  (* invariant: the answer lies in [lo, hi]; index [n-1] always accepts *)
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if x < cumul.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

let weighted_index t w = sample t (sampler w)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let geometric t p =
  assert (p > 0.0 && p <= 1.0);
  if p >= 1.0 then 0
  else
    let u = float t 1.0 in
    (* Inversion: floor(log(1-u) / log(1-p)). *)
    int_of_float (Float.floor (log1p (-.u) /. log1p (-.p)))

let zipf t n s =
  assert (n > 0);
  let w = Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) s) in
  weighted_index t w
