type ctx = { seed : int; rng : Vp_util.Rng.t }

type 'a spec = { key : string; label : string; run : ctx -> 'a }

type 'a outcome = Done of 'a | Failed of string

let derived_seed ~key =
  (* FNV-1a over the key; the RNG's own [create] runs the result through a
     SplitMix64 finalizer, so nearby keys still yield unrelated streams. *)
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    key;
  Int64.to_int !h land max_int

let make ?label ~key run =
  let label =
    match label with
    | Some l -> l
    | None -> if String.length key <= 24 then key else String.sub key 0 24
  in
  { key; label; run }

let ctx_of ~key =
  let seed = derived_seed ~key in
  { seed; rng = Vp_util.Rng.create seed }

let outcome_ok = function Done v -> Some v | Failed _ -> None
let outcome_error = function Done _ -> None | Failed m -> Some m
