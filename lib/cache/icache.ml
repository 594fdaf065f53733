type stats = { accesses : int; hits : int; misses : int }

(* Way [w] of set [s] lives at index [s * ways + w] of the flat arrays. An
   invalid way holds tag [-1]; real tags are non-negative, as addresses
   are, so a tag match alone means a valid hit. *)
type t = {
  line_bytes : int;
  line_shift : int;  (** log2 line_bytes *)
  set_shift : int;  (** log2 number of sets *)
  set_mask : int;  (** number of sets - 1 *)
  ways : int;
  tags : int array;
  stamps : int array;  (** clock of each way's last use *)
  mutable clock : int;
  mutable accesses : int;
  mutable hits : int;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  go 0

let create ?(line_bytes = 32) ?(ways = 2) ~size_bytes () =
  if not (is_power_of_two line_bytes) then
    invalid_arg "Icache.create: line_bytes must be a power of two";
  if ways < 1 then invalid_arg "Icache.create: ways < 1";
  if size_bytes <= 0 || size_bytes mod (line_bytes * ways) <> 0 then
    invalid_arg "Icache.create: size not divisible by line_bytes * ways";
  let num_sets = size_bytes / (line_bytes * ways) in
  if not (is_power_of_two num_sets) then
    invalid_arg "Icache.create: number of sets must be a power of two";
  {
    line_bytes;
    line_shift = log2 line_bytes;
    set_shift = log2 num_sets;
    set_mask = num_sets - 1;
    ways;
    tags = Array.make (num_sets * ways) (-1);
    stamps = Array.make (num_sets * ways) 0;
    clock = 0;
    accesses = 0;
    hits = 0;
  }

let line_bytes t = t.line_bytes
let num_sets t = t.set_mask + 1
let ways t = t.ways

(* [true] on a hit. Updates LRU state and fills on a miss. *)
let lookup t addr =
  assert (addr >= 0);
  let clock = t.clock + 1 in
  t.clock <- clock;
  t.accesses <- t.accesses + 1;
  let line = addr lsr t.line_shift in
  let tag = line lsr t.set_shift in
  let first = (line land t.set_mask) * t.ways in
  let last = first + t.ways - 1 in
  let tags = t.tags and stamps = t.stamps in
  let w = ref first in
  while !w <= last && tags.(!w) <> tag do
    incr w
  done;
  if !w <= last then begin
    stamps.(!w) <- clock;
    t.hits <- t.hits + 1;
    true
  end
  else begin
    (* True-LRU victim: the first invalid way, else the least recently
       used, the first on ties. *)
    let victim = ref first and w = ref first in
    while !w <= last do
      if tags.(!w) < 0 then begin
        victim := !w;
        w := last + 1
      end
      else begin
        if stamps.(!w) < stamps.(!victim) then victim := !w;
        incr w
      end
    done;
    tags.(!victim) <- tag;
    stamps.(!victim) <- clock;
    false
  end

let access t addr = if lookup t addr then `Hit else `Miss

let access_range t ~addr ~bytes =
  assert (bytes > 0);
  let first = addr / t.line_bytes and last = (addr + bytes - 1) / t.line_bytes in
  let misses = ref 0 in
  for line = first to last do
    if not (lookup t (line lsl t.line_shift)) then incr misses
  done;
  !misses

let stats t =
  { accesses = t.accesses; hits = t.hits; misses = t.accesses - t.hits }

let miss_rate t =
  if t.accesses = 0 then 0.0
  else float_of_int (t.accesses - t.hits) /. float_of_int t.accesses

let reset t =
  t.clock <- 0;
  t.accesses <- 0;
  t.hits <- 0;
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.stamps 0 (Array.length t.stamps) 0
