(* Reference set-associative LRU instruction cache: the record-of-ways
   implementation [Vp_cache.Icache] replaced with flat arrays, kept as the
   oracle for test_cache.ml's equivalence property. *)

type way = { mutable tag : int; mutable valid : bool; mutable last_use : int }

type t = {
  line_bytes : int;
  sets : way array array;
  mutable clock : int;
  mutable accesses : int;
  mutable hits : int;
}

let create ~line_bytes ~ways ~size_bytes =
  let num_sets = size_bytes / (line_bytes * ways) in
  let fresh_set _ =
    Array.init ways (fun _ -> { tag = 0; valid = false; last_use = 0 })
  in
  {
    line_bytes;
    sets = Array.init num_sets fresh_set;
    clock = 0;
    accesses = 0;
    hits = 0;
  }

let access t addr =
  t.clock <- t.clock + 1;
  t.accesses <- t.accesses + 1;
  let num_sets = Array.length t.sets in
  let line = addr / t.line_bytes in
  let set = t.sets.(line mod num_sets) in
  let tag = line / num_sets in
  match Array.find_opt (fun w -> w.valid && w.tag = tag) set with
  | Some w ->
      w.last_use <- t.clock;
      t.hits <- t.hits + 1;
      true
  | None ->
      (* True-LRU victim: the least recently used way (invalid wins). *)
      let victim =
        Array.fold_left
          (fun best w ->
            if not w.valid then if best.valid then w else best
            else if best.valid && w.last_use < best.last_use then w
            else best)
          set.(0) set
      in
      victim.tag <- tag;
      victim.valid <- true;
      victim.last_use <- t.clock;
      false

let stats t : Vp_cache.Icache.stats =
  { accesses = t.accesses; hits = t.hits; misses = t.accesses - t.hits }

let reset t =
  t.clock <- 0;
  t.accesses <- 0;
  t.hits <- 0;
  Array.iter
    (Array.iter (fun w ->
         w.valid <- false;
         w.tag <- 0;
         w.last_use <- 0))
    t.sets
