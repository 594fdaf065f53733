type t = { mutable words : int array }

let bits_per_word = Sys.int_size

let create () = { words = Array.make 1 0 }

let ensure t i =
  let need = (i / bits_per_word) + 1 in
  if need > Array.length t.words then begin
    let words = Array.make (max need (2 * Array.length t.words)) 0 in
    Array.blit t.words 0 words 0 (Array.length t.words);
    t.words <- words
  end

let set t i =
  assert (i >= 0);
  ensure t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl b)

let clear t i =
  assert (i >= 0);
  let w = i / bits_per_word in
  if w < Array.length t.words then begin
    let b = i mod bits_per_word in
    t.words.(w) <- t.words.(w) land lnot (1 lsl b)
  end

let mem t i =
  let w = i / bits_per_word in
  if w >= Array.length t.words then false
  else t.words.(w) land (1 lsl (i mod bits_per_word)) <> 0

let of_list l =
  let t = create () in
  List.iter (set t) l;
  t

let copy t = { words = Array.copy t.words }

let is_empty t = Array.for_all (fun w -> w = 0) t.words

let popcount w =
  let rec go w acc = if w = 0 then acc else go (w land (w - 1)) (acc + 1) in
  go w 0

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let max_set_bit t =
  let rec scan_word w bit best =
    if w = 0 then best
    else
      let best = if w land 1 <> 0 then Some bit else best in
      scan_word (w lsr 1) (bit + 1) best
  in
  let best = ref None in
  Array.iteri
    (fun i w ->
      match scan_word w (i * bits_per_word) None with
      | Some b -> best := Some b
      | None -> ())
    t.words;
  !best

let intersects a b =
  let n = min (Array.length a.words) (Array.length b.words) in
  let rec go i = i < n && (a.words.(i) land b.words.(i) <> 0 || go (i + 1)) in
  go 0

let union_into ~dst src =
  ensure dst ((Array.length src.words * bits_per_word) - 1);
  Array.iteri (fun i w -> dst.words.(i) <- dst.words.(i) lor w) src.words

let iter f t =
  Array.iteri
    (fun wi w ->
      if w <> 0 then
        for b = 0 to bits_per_word - 1 do
          if w land (1 lsl b) <> 0 then f ((wi * bits_per_word) + b)
        done)
    t.words

let elements t =
  let acc = ref [] in
  iter (fun i -> acc := i :: !acc) t;
  List.rev !acc

let equal a b =
  let la = Array.length a.words and lb = Array.length b.words in
  let rec go i =
    if i >= max la lb then true
    else
      let wa = if i < la then a.words.(i) else 0
      and wb = if i < lb then b.words.(i) else 0 in
      wa = wb && go (i + 1)
  in
  go 0

let pp ppf t =
  Format.fprintf ppf "{%s}"
    (String.concat "," (List.map string_of_int (elements t)))
