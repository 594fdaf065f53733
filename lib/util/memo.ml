type stats = { hits : int; misses : int; evictions : int }

(* Buckets are keyed by the key's hash, so one table type serves
   structural and physical keys alike: equal keys hash alike and share a
   bucket, which [lookup] scans with the table's own [equal]. Every
   field is read and written under [lock]. *)
type ('k, 'v) stripe = {
  lock : Mutex.t;
  table : (int, 'k * 'v) Hashtbl.t;
  mutable size : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type ('k, 'v) t = {
  hash : 'k -> int;
  equal : 'k -> 'k -> bool;
  stripe_cap : int;
  stripes : ('k, 'v) stripe array;
}

let stripe_count = 16

let create ?(hash = Hashtbl.hash) ?(equal = ( = )) cap =
  if cap < stripe_count then invalid_arg "Memo.create: cap below 16";
  {
    hash;
    equal;
    stripe_cap = cap / stripe_count;
    stripes =
      Array.init stripe_count (fun _ ->
          {
            lock = Mutex.create ();
            table = Hashtbl.create 16;
            size = 0;
            hits = 0;
            misses = 0;
            evictions = 0;
          });
  }

let stripe t h = t.stripes.(h land (stripe_count - 1))

let lookup t s h key =
  List.find_map
    (fun (k, v) -> if t.equal k key then Some v else None)
    (Hashtbl.find_all s.table h)

let find_or_add t ?load key compute =
  let h = t.hash key in
  let s = stripe t h in
  let held =
    Mutex.protect s.lock (fun () ->
        let v = lookup t s h key in
        if Option.is_some v then s.hits <- s.hits + 1;
        v)
  in
  match held with
  | Some v -> v
  | None ->
      let loaded = match load with Some load -> load () | None -> None in
      let v = match loaded with Some v -> v | None -> compute () in
      Mutex.protect s.lock (fun () ->
          if Option.is_some loaded then s.hits <- s.hits + 1
          else s.misses <- s.misses + 1;
          match lookup t s h key with
          | Some winner -> winner
          | None ->
              if s.size >= t.stripe_cap then begin
                s.evictions <- s.evictions + s.size;
                Hashtbl.reset s.table;
                s.size <- 0
              end;
              Hashtbl.add s.table h (key, v);
              s.size <- s.size + 1;
              v)

let find_opt t key =
  let h = t.hash key in
  let s = stripe t h in
  Mutex.protect s.lock (fun () -> lookup t s h key)

let total =
  List.fold_left
    (fun (acc : stats) (s : stats) ->
      {
        hits = acc.hits + s.hits;
        misses = acc.misses + s.misses;
        evictions = acc.evictions + s.evictions;
      })
    { hits = 0; misses = 0; evictions = 0 }

let stats t =
  total
    (Array.to_list
       (Array.map
          (fun s ->
            Mutex.protect s.lock (fun () : stats ->
                { hits = s.hits; misses = s.misses; evictions = s.evictions }))
          t.stripes))

let length t =
  Array.fold_left
    (fun n s -> n + Mutex.protect s.lock (fun () -> s.size))
    0 t.stripes

let clear t =
  Array.iter
    (fun s ->
      Mutex.protect s.lock (fun () ->
          Hashtbl.reset s.table;
          s.size <- 0;
          s.hits <- 0;
          s.misses <- 0;
          s.evictions <- 0))
    t.stripes
