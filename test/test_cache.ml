(* Tests for vp_cache: the set-associative LRU instruction cache. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

let hit = function `Hit -> true | `Miss -> false

let test_cold_miss_then_hit () =
  let c = Vp_cache.Icache.create ~line_bytes:32 ~ways:2 ~size_bytes:1024 () in
  checkb "cold miss" false (hit (Vp_cache.Icache.access c 0));
  checkb "then hit" true (hit (Vp_cache.Icache.access c 0));
  checkb "same line hits" true (hit (Vp_cache.Icache.access c 31));
  checkb "next line misses" false (hit (Vp_cache.Icache.access c 32))

let test_stats () =
  let c = Vp_cache.Icache.create ~size_bytes:1024 () in
  ignore (Vp_cache.Icache.access c 0);
  ignore (Vp_cache.Icache.access c 0);
  ignore (Vp_cache.Icache.access c 64);
  let s = Vp_cache.Icache.stats c in
  checki "accesses" 3 s.accesses;
  checki "hits" 1 s.hits;
  checki "misses" 2 s.misses;
  checkf "miss rate" (2.0 /. 3.0) (Vp_cache.Icache.miss_rate c)

let test_geometry () =
  let c = Vp_cache.Icache.create ~line_bytes:32 ~ways:2 ~size_bytes:2048 () in
  checki "line bytes" 32 (Vp_cache.Icache.line_bytes c);
  checki "ways" 2 (Vp_cache.Icache.ways c);
  checki "sets" 32 (Vp_cache.Icache.num_sets c)

let test_lru_eviction () =
  (* 2 sets, 2 ways, 32B lines = 128 bytes. Lines 0, 2, 4 map to set 0. *)
  let c = Vp_cache.Icache.create ~line_bytes:32 ~ways:2 ~size_bytes:128 () in
  let addr line = line * 32 in
  ignore (Vp_cache.Icache.access c (addr 0));
  ignore (Vp_cache.Icache.access c (addr 2));
  (* touch line 0 so line 2 is LRU *)
  checkb "line 0 resident" true (hit (Vp_cache.Icache.access c (addr 0)));
  (* line 4 evicts line 2 *)
  checkb "line 4 cold" false (hit (Vp_cache.Icache.access c (addr 4)));
  checkb "line 0 survived" true (hit (Vp_cache.Icache.access c (addr 0)));
  checkb "line 2 evicted" false (hit (Vp_cache.Icache.access c (addr 2)))

let test_conflict_vs_capacity () =
  (* A loop footprint that fits has no misses after warmup. *)
  let c = Vp_cache.Icache.create ~line_bytes:32 ~ways:2 ~size_bytes:4096 () in
  let touch_all () =
    for line = 0 to 31 do
      ignore (Vp_cache.Icache.access c (line * 32))
    done
  in
  touch_all ();
  let warm = Vp_cache.Icache.stats c in
  touch_all ();
  let after = Vp_cache.Icache.stats c in
  checki "no misses after warmup" warm.misses after.misses

let test_access_range () =
  let c = Vp_cache.Icache.create ~line_bytes:32 ~ways:2 ~size_bytes:1024 () in
  (* 100 bytes starting at 16 overlap lines 0..3 *)
  checki "range misses" 4 (Vp_cache.Icache.access_range c ~addr:16 ~bytes:100);
  checki "second pass hits" 0
    (Vp_cache.Icache.access_range c ~addr:16 ~bytes:100)

let test_reset () =
  let c = Vp_cache.Icache.create ~size_bytes:1024 () in
  ignore (Vp_cache.Icache.access c 0);
  Vp_cache.Icache.reset c;
  checki "stats cleared" 0 (Vp_cache.Icache.stats c).accesses;
  checkb "contents invalidated" false (hit (Vp_cache.Icache.access c 0))

let test_validation () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  checkb "non power-of-two line" true
    (raises (fun () -> Vp_cache.Icache.create ~line_bytes:33 ~size_bytes:1024 ()));
  checkb "size not divisible" true
    (raises (fun () -> Vp_cache.Icache.create ~line_bytes:32 ~ways:3 ~size_bytes:1000 ()));
  checkb "zero ways" true
    (raises (fun () -> Vp_cache.Icache.create ~ways:0 ~size_bytes:1024 ()))

let prop_miss_bounds =
  QCheck.Test.make ~name:"hits + misses = accesses; both non-negative"
    ~count:100
    QCheck.(small_list (int_bound 10_000))
    (fun addrs ->
      let c = Vp_cache.Icache.create ~size_bytes:512 () in
      List.iter (fun a -> ignore (Vp_cache.Icache.access c a)) addrs;
      let s = Vp_cache.Icache.stats c in
      s.hits + s.misses = s.accesses
      && s.hits >= 0 && s.misses >= 0
      && s.accesses = List.length addrs)

let prop_bigger_cache_never_worse =
  QCheck.Test.make ~name:"a bigger cache never misses more (same ways/lines)"
    ~count:50
    QCheck.(list_of_size (QCheck.Gen.return 200) (int_bound 8192))
    (fun addrs ->
      let run size =
        let c =
          Vp_cache.Icache.create ~line_bytes:32 ~ways:1 ~size_bytes:size ()
        in
        List.iter (fun a -> ignore (Vp_cache.Icache.access c a)) addrs;
        (Vp_cache.Icache.stats c).misses
      in
      (* direct-mapped caches are not strictly inclusive, but doubling the
         size four times over the footprint must not hurt *)
      run 16384 <= run 1024)

(* The flat-array cache against the record-of-ways reference
   ([Icache_ref]): same hit/miss on every access and the same stats, over
   random geometries (1-4 ways, 3 included; 1-64 sets; 8-64-byte lines)
   and address streams with occasional resets. *)
type op = Access of int | Reset

let cache_case_gen =
  let open QCheck.Gen in
  int_range 3 6 >>= fun line_log ->
  int_range 1 4 >>= fun ways ->
  int_range 0 6 >>= fun sets_log ->
  let line_bytes = 1 lsl line_log and sets = 1 lsl sets_log in
  let size_bytes = line_bytes * ways * sets in
  let op =
    frequency
      [
        (1, return Reset);
        (60, map (fun a -> Access a) (int_bound (4 * size_bytes)));
      ]
  in
  list_size (int_range 0 400) op >|= fun ops ->
  (line_bytes, ways, size_bytes, ops)

let prop_flat_matches_reference =
  QCheck.Test.make ~count:300 ~name:"flat icache = record-of-ways reference"
    (QCheck.make
       ~print:(fun (l, w, s, ops) ->
         Printf.sprintf "line %d, %d-way, %d bytes, %d ops" l w s
           (List.length ops))
       cache_case_gen)
    (fun (line_bytes, ways, size_bytes, ops) ->
      let flat = Vp_cache.Icache.create ~line_bytes ~ways ~size_bytes () in
      let reference = Icache_ref.create ~line_bytes ~ways ~size_bytes in
      List.for_all
        (function
          | Reset ->
              Vp_cache.Icache.reset flat;
              Icache_ref.reset reference;
              true
          | Access a ->
              hit (Vp_cache.Icache.access flat a) = Icache_ref.access reference a
              && Vp_cache.Icache.stats flat = Icache_ref.stats reference)
        ops
      && Vp_cache.Icache.stats flat = Icache_ref.stats reference)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "vp_cache"
    [
      ( "icache",
        [
          tc "cold miss then hit" test_cold_miss_then_hit;
          tc "stats" test_stats;
          tc "geometry" test_geometry;
          tc "lru eviction" test_lru_eviction;
          tc "fits after warmup" test_conflict_vs_capacity;
          tc "access range" test_access_range;
          tc "reset" test_reset;
          tc "validation" test_validation;
          QCheck_alcotest.to_alcotest prop_miss_bounds;
          QCheck_alcotest.to_alcotest prop_bigger_cache_never_worse;
          QCheck_alcotest.to_alcotest prop_flat_matches_reference;
        ] );
    ]
