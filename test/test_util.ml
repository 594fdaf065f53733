(* Tests for vp_util: RNG, bitsets, FIFOs, statistics, histograms, tables,
   memos. *)

let check = Alcotest.check
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

(* --- Rng --- *)

let test_rng_determinism () =
  let a = Vp_util.Rng.create 7 and b = Vp_util.Rng.create 7 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Vp_util.Rng.bits64 a)
      (Vp_util.Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Vp_util.Rng.create 1 and b = Vp_util.Rng.create 2 in
  checkb "different seeds diverge" true
    (Vp_util.Rng.bits64 a <> Vp_util.Rng.bits64 b)

let test_rng_int_bounds () =
  let rng = Vp_util.Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Vp_util.Rng.int rng 17 in
    checkb "in [0,17)" true (v >= 0 && v < 17)
  done

let test_rng_int_covers () =
  let rng = Vp_util.Rng.create 4 in
  let seen = Array.make 8 false in
  for _ = 1 to 1000 do
    seen.(Vp_util.Rng.int rng 8) <- true
  done;
  checkb "all residues reached" true (Array.for_all Fun.id seen)

let test_rng_float_bounds () =
  let rng = Vp_util.Rng.create 5 in
  for _ = 1 to 10_000 do
    let v = Vp_util.Rng.float rng 2.5 in
    checkb "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_bernoulli_extremes () =
  let rng = Vp_util.Rng.create 6 in
  for _ = 1 to 100 do
    checkb "p=0 never" false (Vp_util.Rng.bernoulli rng 0.0);
    checkb "p=1 always" true (Vp_util.Rng.bernoulli rng 1.0)
  done

let test_rng_bernoulli_rate () =
  let rng = Vp_util.Rng.create 7 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Vp_util.Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  checkb "rate near 0.3" true (abs_float (rate -. 0.3) < 0.02)

let test_rng_split_independence () =
  let parent = Vp_util.Rng.create 8 in
  let child = Vp_util.Rng.split parent in
  let child_vals = List.init 10 (fun _ -> Vp_util.Rng.bits64 child) in
  let parent_vals = List.init 10 (fun _ -> Vp_util.Rng.bits64 parent) in
  checkb "child differs from parent tail" true (child_vals <> parent_vals)

let test_rng_split_named_stable () =
  let mk () = Vp_util.Rng.create 9 in
  let a = Vp_util.Rng.split_named (mk ()) "alpha" in
  let b = Vp_util.Rng.split_named (mk ()) "alpha" in
  let c = Vp_util.Rng.split_named (mk ()) "beta" in
  check Alcotest.int64 "same name, same stream" (Vp_util.Rng.bits64 a)
    (Vp_util.Rng.bits64 b);
  checkb "different names differ" true
    (Vp_util.Rng.bits64 (Vp_util.Rng.split_named (mk ()) "alpha")
    <> Vp_util.Rng.bits64 c)

let test_rng_split_named_does_not_advance () =
  let a = Vp_util.Rng.create 10 and b = Vp_util.Rng.create 10 in
  let (_ : Vp_util.Rng.t) = Vp_util.Rng.split_named a "x" in
  check Alcotest.int64 "parent unchanged" (Vp_util.Rng.bits64 a)
    (Vp_util.Rng.bits64 b)

let test_rng_copy () =
  let a = Vp_util.Rng.create 11 in
  let (_ : int64) = Vp_util.Rng.bits64 a in
  let b = Vp_util.Rng.copy a in
  check Alcotest.int64 "copy continues identically" (Vp_util.Rng.bits64 a)
    (Vp_util.Rng.bits64 b)

let test_rng_choose () =
  let rng = Vp_util.Rng.create 12 in
  let arr = [| 'a'; 'b'; 'c' |] in
  for _ = 1 to 100 do
    checkb "member" true (Array.mem (Vp_util.Rng.choose rng arr) arr)
  done

let test_rng_weighted_index () =
  let rng = Vp_util.Rng.create 13 in
  let counts = Array.make 3 0 in
  for _ = 1 to 30_000 do
    let i = Vp_util.Rng.weighted_index rng [| 1.0; 2.0; 7.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  checkb "weight-0.1 bucket ~10%" true
    (abs_float ((float_of_int counts.(0) /. 30_000.0) -. 0.1) < 0.02);
  checkb "weight-0.7 bucket ~70%" true
    (abs_float ((float_of_int counts.(2) /. 30_000.0) -. 0.7) < 0.02)

let test_rng_weighted_index_zero_weight () =
  let rng = Vp_util.Rng.create 14 in
  for _ = 1 to 1000 do
    checki "zero-weight bucket never drawn" 1
      (Vp_util.Rng.weighted_index rng [| 0.0; 5.0 |])
  done

(* The linear scan the prepared sampler replaced: the reference for
   [prop_sampler_matches_linear_scan]. *)
let linear_weighted_index rng w =
  let total = Array.fold_left ( +. ) 0.0 w in
  let x = Vp_util.Rng.float rng total in
  let n = Array.length w in
  let rec find i acc =
    if i >= n - 1 then n - 1
    else
      let acc = acc +. w.(i) in
      if x < acc then i else find (i + 1) acc
  in
  find 0 0.0

(* Non-negative weights, about a third of them zero (runs of zeros
   included), mixing integer counts with fractional and tiny values so the
   cumulative sums round; at least one weight is positive. *)
let weights_gen =
  let open QCheck.Gen in
  let weight =
    frequency
      [
        (3, return 0.0);
        (3, map float_of_int (int_bound 1000));
        (2, float_bound_inclusive 1.0);
        (1, map (fun e -> Float.ldexp 1.0 (-e)) (int_bound 60));
      ]
  in
  int_range 1 300 >>= fun n ->
  array_size (return n) weight >>= fun w ->
  int_bound (n - 1) >|= fun i ->
  if Array.exists (fun x -> x > 0.0) w then w
  else begin
    w.(i) <- 1.0;
    w
  end

let prop_sampler_matches_linear_scan =
  QCheck.Test.make ~count:300
    ~name:"prepared sampler = linear scan (index and RNG state)"
    QCheck.(
      pair
        (make
           ~print:(fun w ->
             String.concat ";" (Array.to_list (Array.map string_of_float w)))
           weights_gen)
        small_nat)
    (fun (w, seed) ->
      let a = Vp_util.Rng.create seed and b = Vp_util.Rng.create seed in
      let sampler = Vp_util.Rng.sampler w in
      let same_indices =
        List.for_all
          (fun _ -> Vp_util.Rng.sample a sampler = linear_weighted_index b w)
          (List.init 64 Fun.id)
      in
      same_indices && Vp_util.Rng.bits64 a = Vp_util.Rng.bits64 b)

let test_rng_shuffle_permutation () =
  let rng = Vp_util.Rng.create 15 in
  let a = Array.init 20 Fun.id in
  Vp_util.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "is a permutation" (Array.init 20 Fun.id) sorted

let test_rng_geometric () =
  let rng = Vp_util.Rng.create 16 in
  checki "p=1 is always 0" 0 (Vp_util.Rng.geometric rng 1.0);
  let total = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    total := !total + Vp_util.Rng.geometric rng 0.5
  done;
  (* mean of geometric(0.5) on {0,1,...} is 1 *)
  let mean = float_of_int !total /. float_of_int n in
  checkb "mean near 1" true (abs_float (mean -. 1.0) < 0.1)

let test_rng_zipf_skew () =
  let rng = Vp_util.Rng.create 17 in
  let counts = Array.make 10 0 in
  for _ = 1 to 20_000 do
    let i = Vp_util.Rng.zipf rng 10 1.0 in
    counts.(i) <- counts.(i) + 1
  done;
  checkb "rank 0 most frequent" true (counts.(0) > counts.(1));
  checkb "rank 1 beats rank 9" true (counts.(1) > counts.(9))

(* --- Bitset --- *)

let test_bitset_basic () =
  let b = Vp_util.Bitset.create () in
  checkb "empty" true (Vp_util.Bitset.is_empty b);
  Vp_util.Bitset.set b 5;
  Vp_util.Bitset.set b 100;
  checkb "mem 5" true (Vp_util.Bitset.mem b 5);
  checkb "mem 100" true (Vp_util.Bitset.mem b 100);
  checkb "not mem 6" false (Vp_util.Bitset.mem b 6);
  checki "cardinal" 2 (Vp_util.Bitset.cardinal b);
  Vp_util.Bitset.clear b 5;
  checkb "cleared" false (Vp_util.Bitset.mem b 5);
  checki "cardinal after clear" 1 (Vp_util.Bitset.cardinal b)

let test_bitset_clear_absent () =
  let b = Vp_util.Bitset.of_list [ 1 ] in
  Vp_util.Bitset.clear b 1000;
  checki "clearing an absent bit is a no-op" 1 (Vp_util.Bitset.cardinal b)

let test_bitset_elements_sorted () =
  let b = Vp_util.Bitset.of_list [ 9; 2; 64; 2; 0 ] in
  check
    Alcotest.(list int)
    "sorted unique" [ 0; 2; 9; 64 ]
    (Vp_util.Bitset.elements b)

let test_bitset_max_set_bit () =
  let b = Vp_util.Bitset.create () in
  check Alcotest.(option int) "empty has none" None
    (Vp_util.Bitset.max_set_bit b);
  Vp_util.Bitset.set b 3;
  Vp_util.Bitset.set b 77;
  check Alcotest.(option int) "max is 77" (Some 77)
    (Vp_util.Bitset.max_set_bit b)

let test_bitset_intersects () =
  let a = Vp_util.Bitset.of_list [ 1; 65 ] in
  let b = Vp_util.Bitset.of_list [ 65 ] in
  let c = Vp_util.Bitset.of_list [ 2; 66 ] in
  checkb "a & b" true (Vp_util.Bitset.intersects a b);
  checkb "a & c" false (Vp_util.Bitset.intersects a c);
  checkb "empty never intersects" false
    (Vp_util.Bitset.intersects a (Vp_util.Bitset.create ()))

let test_bitset_union_into () =
  let a = Vp_util.Bitset.of_list [ 1; 2 ] in
  let b = Vp_util.Bitset.of_list [ 2; 200 ] in
  Vp_util.Bitset.union_into ~dst:a b;
  check Alcotest.(list int) "union" [ 1; 2; 200 ] (Vp_util.Bitset.elements a)

let test_bitset_copy_independent () =
  let a = Vp_util.Bitset.of_list [ 4 ] in
  let b = Vp_util.Bitset.copy a in
  Vp_util.Bitset.set b 5;
  checkb "original untouched" false (Vp_util.Bitset.mem a 5)

let test_bitset_equal () =
  let a = Vp_util.Bitset.of_list [ 1; 70 ] in
  let b = Vp_util.Bitset.of_list [ 70; 1 ] in
  checkb "equal" true (Vp_util.Bitset.equal a b);
  let c = Vp_util.Bitset.of_list [ 1; 70; 500 ] in
  Vp_util.Bitset.clear c 500;
  checkb "equal after clearing high bit" true (Vp_util.Bitset.equal a c)

let bitset_model_test =
  QCheck.Test.make ~name:"bitset agrees with a table model" ~count:200
    QCheck.(small_list (int_bound 300))
    (fun ops ->
      let b = Vp_util.Bitset.create () in
      let model = Hashtbl.create 16 in
      List.iteri
        (fun i x ->
          if i mod 3 = 2 then begin
            Vp_util.Bitset.clear b x;
            Hashtbl.remove model x
          end
          else begin
            Vp_util.Bitset.set b x;
            Hashtbl.replace model x ()
          end)
        ops;
      let expected =
        Hashtbl.fold (fun k () acc -> k :: acc) model [] |> List.sort compare
      in
      Vp_util.Bitset.elements b = expected
      && Vp_util.Bitset.cardinal b = List.length expected)

(* --- Fifo --- *)

let test_fifo_order () =
  let q = Vp_util.Fifo.create () in
  List.iter (fun x -> ignore (Vp_util.Fifo.push q x)) [ 1; 2; 3 ];
  check Alcotest.(list int) "fifo order" [ 1; 2; 3 ] (Vp_util.Fifo.to_list q);
  check Alcotest.(option int) "peek" (Some 1) (Vp_util.Fifo.peek q);
  check Alcotest.(option int) "pop" (Some 1) (Vp_util.Fifo.pop q);
  check Alcotest.(option int) "next peek" (Some 2) (Vp_util.Fifo.peek q)

let test_fifo_capacity () =
  let q = Vp_util.Fifo.create ~capacity:2 () in
  checkb "push 1" true (Vp_util.Fifo.push q 1);
  checkb "push 2" true (Vp_util.Fifo.push q 2);
  checkb "push 3 rejected" false (Vp_util.Fifo.push q 3);
  checkb "full" true (Vp_util.Fifo.is_full q);
  ignore (Vp_util.Fifo.pop q);
  checkb "push after pop" true (Vp_util.Fifo.push q 3)

let test_fifo_high_water () =
  let q = Vp_util.Fifo.create () in
  ignore (Vp_util.Fifo.push q 1);
  ignore (Vp_util.Fifo.push q 2);
  ignore (Vp_util.Fifo.pop q);
  ignore (Vp_util.Fifo.push q 3);
  checki "high water" 2 (Vp_util.Fifo.high_water_mark q);
  Vp_util.Fifo.clear q;
  checkb "cleared" true (Vp_util.Fifo.is_empty q);
  checki "high water survives clear" 2 (Vp_util.Fifo.high_water_mark q)

let fifo_model_test =
  QCheck.Test.make ~name:"fifo agrees with a list model" ~count:200
    QCheck.(small_list (option small_int))
    (fun ops ->
      let q = Vp_util.Fifo.create () in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Some x ->
              ignore (Vp_util.Fifo.push q x);
              model := !model @ [ x ];
              true
          | None -> (
              let popped = Vp_util.Fifo.pop q in
              match (!model, popped) with
              | [], None -> true
              | m :: rest, Some y ->
                  model := rest;
                  m = y
              | _ -> false))
        ops
      && Vp_util.Fifo.to_list q = !model)

(* --- Stats --- *)

let test_stats_mean () =
  checkf "mean" 2.0 (Vp_util.Stats.mean [ 1.0; 2.0; 3.0 ]);
  checkf "empty mean" 0.0 (Vp_util.Stats.mean [])

let test_stats_weighted_mean () =
  checkf "weighted" 3.0
    (Vp_util.Stats.weighted_mean [ (1.0, 1.0); (4.0, 2.0) ]);
  checkf "zero weights" 0.0 (Vp_util.Stats.weighted_mean [ (5.0, 0.0) ])

let test_stats_geometric_mean () =
  checkf "geomean" 2.0 (Vp_util.Stats.geometric_mean [ 1.0; 4.0 ]);
  checkf "empty" 0.0 (Vp_util.Stats.geometric_mean [])

let test_stats_variance () =
  checkf "variance" 2.0 (Vp_util.Stats.variance [ 1.0; 2.0; 3.0; 4.0; 5.0 ]);
  checkf "stddev" (sqrt 2.0)
    (Vp_util.Stats.stddev [ 1.0; 2.0; 3.0; 4.0; 5.0 ]);
  checkf "singleton variance" 0.0 (Vp_util.Stats.variance [ 42.0 ])

let test_stats_min_max () =
  check
    Alcotest.(option (pair (float 0.0) (float 0.0)))
    "min max"
    (Some (1.0, 9.0))
    (Vp_util.Stats.min_max [ 4.0; 1.0; 9.0 ]);
  check
    Alcotest.(option (pair (float 0.0) (float 0.0)))
    "empty" None (Vp_util.Stats.min_max [])

let test_stats_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  checkf "p50" 50.0 (Vp_util.Stats.percentile 50.0 xs);
  checkf "p100" 100.0 (Vp_util.Stats.percentile 100.0 xs);
  Alcotest.check_raises "empty raises"
    (Invalid_argument "Stats.percentile: empty list") (fun () ->
      ignore (Vp_util.Stats.percentile 50.0 []))

let test_stats_ratio_clamp () =
  checkf "ratio" 0.5 (Vp_util.Stats.ratio 1.0 2.0);
  checkf "ratio by zero" 0.0 (Vp_util.Stats.ratio 1.0 0.0);
  checkf "clamp low" 0.0 (Vp_util.Stats.clamp ~lo:0.0 ~hi:1.0 (-5.0));
  checkf "clamp high" 1.0 (Vp_util.Stats.clamp ~lo:0.0 ~hi:1.0 5.0);
  checkf "clamp mid" 0.4 (Vp_util.Stats.clamp ~lo:0.0 ~hi:1.0 0.4)

let test_stats_acc () =
  let acc = Vp_util.Stats.Acc.create () in
  Vp_util.Stats.Acc.add acc 2.0;
  Vp_util.Stats.Acc.add_weighted acc 10.0 3.0;
  checki "count" 2 (Vp_util.Stats.Acc.count acc);
  checkf "weight" 4.0 (Vp_util.Stats.Acc.weight acc);
  checkf "mean" 8.0 (Vp_util.Stats.Acc.mean acc);
  checkf "min" 2.0 (Vp_util.Stats.Acc.min acc);
  checkf "max" 10.0 (Vp_util.Stats.Acc.max acc)

(* --- Histogram --- *)

let test_histogram_buckets () =
  let h = Vp_util.Histogram.schedule_change_buckets in
  Vp_util.Histogram.add h (-3);
  Vp_util.Histogram.add h 0;
  Vp_util.Histogram.add h 2;
  Vp_util.Histogram.add h ~weight:2.0 6;
  Vp_util.Histogram.add h 100;
  checkf "total" 6.0 (Vp_util.Histogram.total h);
  let counts = Vp_util.Histogram.counts h in
  checkf "degraded" 1.0 (List.assoc "degraded" counts);
  checkf "unchanged" 1.0 (List.assoc "unchanged" counts);
  checkf "+1..4" 1.0 (List.assoc "+1..4" counts);
  checkf "+5..8" 2.0 (List.assoc "+5..8" counts);
  checkf ">+8" 1.0 (List.assoc ">+8" counts)

let test_histogram_fractions_sum () =
  let h =
    Vp_util.Histogram.create
      [ { Vp_util.Histogram.label = "a"; lo = 0; hi = 5 } ]
  in
  Vp_util.Histogram.add h 1;
  Vp_util.Histogram.add h 99 (* lands in the implicit other bucket *);
  let sum =
    List.fold_left (fun acc (_, f) -> acc +. f) 0.0
      (Vp_util.Histogram.fractions h)
  in
  checkf "fractions sum to 1" 1.0 sum

let test_histogram_empty () =
  let h =
    Vp_util.Histogram.create
      [ { Vp_util.Histogram.label = "a"; lo = 0; hi = 5 } ]
  in
  checkf "empty total" 0.0 (Vp_util.Histogram.total h);
  List.iter
    (fun (_, f) -> checkf "zero fraction" 0.0 f)
    (Vp_util.Histogram.fractions h)

(* --- Table --- *)

let test_table_render () =
  let t =
    Vp_util.Table.create ~title:"T"
      [ ("name", Vp_util.Table.Left); ("v", Vp_util.Table.Right) ]
  in
  Vp_util.Table.add_row t [ "a"; "1" ];
  Vp_util.Table.add_separator t;
  Vp_util.Table.add_row t [ "bb"; "22" ];
  let s = Vp_util.Table.render t in
  checkb "has title" true (String.length s > 0 && String.sub s 0 1 = "T");
  checkb "mentions row" true
    (String.split_on_char '\n' s |> List.exists (fun l -> l = "bb   | 22"))

let test_table_arity () =
  let t = Vp_util.Table.create [ ("a", Vp_util.Table.Left) ] in
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Table.add_row: arity mismatch") (fun () ->
      Vp_util.Table.add_row t [ "x"; "y" ])

let test_table_csv () =
  let t =
    Vp_util.Table.create ~title:"ignored"
      [ ("name", Vp_util.Table.Left); ("v", Vp_util.Table.Right) ]
  in
  Vp_util.Table.add_row t [ "plain"; "1" ];
  Vp_util.Table.add_separator t;
  Vp_util.Table.add_row t [ "with,comma"; "quo\"te" ];
  check Alcotest.string "csv escaping"
    "name,v\nplain,1\n\"with,comma\",\"quo\"\"te\"\n"
    (Vp_util.Table.render_csv t)

let test_table_cells () =
  check Alcotest.string "cell_f" "0.48" (Vp_util.Table.cell_f 0.4811);
  check Alcotest.string "unit_cell aligned" "48.1%"
    (Vp_util.Table.unit_cell `Ascii "48.1" "%");
  check Alcotest.string "unit_cell csv" "48.1"
    (Vp_util.Table.unit_cell `Csv "48.1" "%");
  check Alcotest.string "unit_header csv" "share [%]"
    (Vp_util.Table.unit_header `Csv "share" "%")

(* --- Memo --- *)

let test_memo_bounded () =
  let cap = 64 in
  let m = Vp_util.Memo.create cap in
  for k = 1 to 2 * cap do
    checki "computed value" k (Vp_util.Memo.find_or_add m k (fun () -> k))
  done;
  let s = Vp_util.Memo.stats m in
  let held = Vp_util.Memo.length m in
  checkb "holds at most cap" true (held <= cap);
  checki "every key missed" (2 * cap) s.misses;
  checki "every dropped entry counted" (2 * cap) (held + s.evictions);
  checkb "at least cap evicted" true (s.evictions >= cap)

(* Two domains miss one key together: a barrier inside [compute] holds
   each until both are computing, so each builds its own value, and the
   one inserted first is what both get back. *)
let test_memo_race_first_insert_wins () =
  let m = Vp_util.Memo.create 16 in
  let computing = Atomic.make 0 in
  let compute () =
    Atomic.incr computing;
    while Atomic.get computing < 2 do
      Domain.cpu_relax ()
    done;
    ref 0
  in
  let other = Domain.spawn (fun () -> Vp_util.Memo.find_or_add m "k" compute) in
  let mine = Vp_util.Memo.find_or_add m "k" compute in
  let theirs = Domain.join other in
  checkb "one physical value" true (mine == theirs);
  checki "both computed" 2 (Vp_util.Memo.stats m).misses;
  checki "one entry" 1 (Vp_util.Memo.length m)

let test_memo_load_hit () =
  let m = Vp_util.Memo.create 16 in
  let never () = Alcotest.fail "computed on a hit" in
  checki "loaded value" 7
    (Vp_util.Memo.find_or_add m "k" ~load:(fun () -> Some 7) never);
  let s = Vp_util.Memo.stats m in
  checki "load counts as a hit" 1 s.hits;
  checki "no miss" 0 s.misses;
  checki "then held in memory" 7 (Vp_util.Memo.find_or_add m "k" never);
  checki "load miss computes" 9
    (Vp_util.Memo.find_or_add m "j" ~load:(fun () -> None) (fun () -> 9));
  let s = Vp_util.Memo.stats m in
  checki "hits" 2 s.hits;
  checki "misses" 1 s.misses

let test_memo_clear () =
  let m = Vp_util.Memo.create 16 in
  for k = 1 to 40 do
    ignore (Vp_util.Memo.find_or_add m (k mod 20) (fun () -> k))
  done;
  Vp_util.Memo.clear m;
  checki "empty" 0 (Vp_util.Memo.length m);
  checkb "nothing held" true (Vp_util.Memo.find_opt m 1 = None);
  let s = Vp_util.Memo.stats m in
  checki "hits zeroed" 0 s.hits;
  checki "misses zeroed" 0 s.misses;
  checki "evictions zeroed" 0 s.evictions

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "vp_util"
    [
      ( "rng",
        [
          tc "determinism" test_rng_determinism;
          tc "seeds differ" test_rng_seeds_differ;
          tc "int bounds" test_rng_int_bounds;
          tc "int covers residues" test_rng_int_covers;
          tc "float bounds" test_rng_float_bounds;
          tc "bernoulli extremes" test_rng_bernoulli_extremes;
          tc "bernoulli rate" test_rng_bernoulli_rate;
          tc "split independence" test_rng_split_independence;
          tc "split_named stable" test_rng_split_named_stable;
          tc "split_named does not advance"
            test_rng_split_named_does_not_advance;
          tc "copy" test_rng_copy;
          tc "choose" test_rng_choose;
          tc "weighted index" test_rng_weighted_index;
          tc "weighted index zero weight" test_rng_weighted_index_zero_weight;
          QCheck_alcotest.to_alcotest prop_sampler_matches_linear_scan;
          tc "shuffle is a permutation" test_rng_shuffle_permutation;
          tc "geometric" test_rng_geometric;
          tc "zipf skew" test_rng_zipf_skew;
        ] );
      ( "bitset",
        [
          tc "basic" test_bitset_basic;
          tc "clear absent" test_bitset_clear_absent;
          tc "elements sorted" test_bitset_elements_sorted;
          tc "max_set_bit" test_bitset_max_set_bit;
          tc "intersects" test_bitset_intersects;
          tc "union_into" test_bitset_union_into;
          tc "copy independent" test_bitset_copy_independent;
          tc "equal" test_bitset_equal;
          QCheck_alcotest.to_alcotest bitset_model_test;
        ] );
      ( "fifo",
        [
          tc "order" test_fifo_order;
          tc "capacity" test_fifo_capacity;
          tc "high water" test_fifo_high_water;
          QCheck_alcotest.to_alcotest fifo_model_test;
        ] );
      ( "stats",
        [
          tc "mean" test_stats_mean;
          tc "weighted mean" test_stats_weighted_mean;
          tc "geometric mean" test_stats_geometric_mean;
          tc "variance" test_stats_variance;
          tc "min max" test_stats_min_max;
          tc "percentile" test_stats_percentile;
          tc "ratio and clamp" test_stats_ratio_clamp;
          tc "accumulator" test_stats_acc;
        ] );
      ( "histogram",
        [
          tc "buckets" test_histogram_buckets;
          tc "fractions sum" test_histogram_fractions_sum;
          tc "empty" test_histogram_empty;
        ] );
      ( "table",
        [
          tc "render" test_table_render;
          tc "arity" test_table_arity;
          tc "csv" test_table_csv;
          tc "cells" test_table_cells;
        ] );
      ( "memo",
        [
          tc "bounded" test_memo_bounded;
          tc "racing misses share the first insert"
            test_memo_race_first_insert_wins;
          tc "load hit" test_memo_load_hit;
          tc "clear" test_memo_clear;
        ] );
    ]
