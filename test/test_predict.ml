(* Tests for vp_predict: the value predictors (the closure-record
   reference in [Predictor_ref] and the unboxed [Kernel] held to it),
   confidence counters, and the hardware value-prediction table. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkoi = Alcotest.(check (option int))
let checkf = Alcotest.(check (float 1e-9))

(* --- Last value --- *)

let test_last_value () =
  let p = Predictor_ref.Last_value.create () in
  checkoi "cold" None (Predictor_ref.Last_value.predict p);
  Predictor_ref.Last_value.update p 42;
  checkoi "predicts last" (Some 42) (Predictor_ref.Last_value.predict p);
  Predictor_ref.Last_value.update p 7;
  checkoi "updates" (Some 7) (Predictor_ref.Last_value.predict p);
  Predictor_ref.Last_value.reset p;
  checkoi "reset" None (Predictor_ref.Last_value.predict p)

(* --- Stride --- *)

let test_stride_constant () =
  let p = Predictor_ref.Stride.create () in
  Predictor_ref.Stride.update p 5;
  checkoi "constant predicted with stride 0" (Some 5)
    (Predictor_ref.Stride.predict p)

let test_stride_arithmetic () =
  let p = Predictor_ref.Stride.create () in
  List.iter (Predictor_ref.Stride.update p) [ 10; 14; 18 ];
  checkoi "confirmed stride" (Some 4) (Predictor_ref.Stride.confirmed_stride p);
  checkoi "predicts next" (Some 22) (Predictor_ref.Stride.predict p)

let test_stride_two_delta () =
  (* A single outlier must not retrain the confirmed stride. *)
  let p = Predictor_ref.Stride.create () in
  List.iter (Predictor_ref.Stride.update p) [ 0; 4; 8; 100 ];
  checkoi "stride survives one jump" (Some 4)
    (Predictor_ref.Stride.confirmed_stride p);
  checkoi "predicts from the jump point" (Some 104)
    (Predictor_ref.Stride.predict p);
  (* two consecutive equal deltas retrain *)
  List.iter (Predictor_ref.Stride.update p) [ 110; 120; 130 ];
  checkoi "retrained" (Some 10) (Predictor_ref.Stride.confirmed_stride p)

let test_stride_accuracy_on_stream () =
  let acc =
    Predictor_ref.accuracy_of Vp_predict.Predictor.Stride
      (List.init 100 (fun i -> 3 * i))
  in
  (* misses only the first two (cold + unconfirmed stride) *)
  checkb "high accuracy" true (acc >= 0.97)

(* --- FCM --- *)

let test_fcm_learns_period () =
  let p = Predictor_ref.Fcm.create ~order:2 ~table_bits:8 () in
  let pattern = [ 1; 7; 3 ] in
  (* two laps to train every context *)
  List.iter (Predictor_ref.Fcm.update p) (pattern @ pattern);
  (* context is now (7, 3) -> next is 1 *)
  checkoi "predicts the pattern" (Some 1) (Predictor_ref.Fcm.predict p);
  Predictor_ref.Fcm.update p 1;
  checkoi "and the next element" (Some 7) (Predictor_ref.Fcm.predict p)

let test_fcm_cold_and_reset () =
  let p = Predictor_ref.Fcm.create ~order:3 () in
  checkoi "cold" None (Predictor_ref.Fcm.predict p);
  Predictor_ref.Fcm.update p 1;
  Predictor_ref.Fcm.update p 2;
  checkoi "context not full" None (Predictor_ref.Fcm.predict p);
  Predictor_ref.Fcm.update p 3;
  (* context full but second level still cold *)
  checkoi "table miss" None (Predictor_ref.Fcm.predict p);
  Predictor_ref.Fcm.reset p;
  checkoi "reset clears" None (Predictor_ref.Fcm.predict p);
  checki "order" 3 (Predictor_ref.Fcm.order p)

let test_fcm_beats_stride_on_pointer_chain () =
  let rng = Vp_util.Rng.create 1 in
  let values =
    Vp_workload.Value_stream.take
      (Vp_workload.Value_stream.create rng
         (Vp_workload.Value_stream.Pointer_chain { nodes = 8 }))
      400
  in
  let fcm =
    Predictor_ref.accuracy_of
      (Vp_predict.Predictor.Fcm { order = 2; table_bits = 10 })
      values
  in
  let stride = Predictor_ref.accuracy_of Vp_predict.Predictor.Stride values in
  checkb "fcm learns the chain" true (fcm > 0.9);
  checkb "stride cannot" true (stride < 0.2)

let test_fcm_validation () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  checkb "order 0" true
    (raises (fun () -> Predictor_ref.Fcm.create ~order:0 ()));
  checkb "table too small" true
    (raises (fun () -> Predictor_ref.Fcm.create ~table_bits:2 ()))

(* --- DFCM --- *)

let test_dfcm_strided () =
  let p = Predictor_ref.Dfcm.create ~order:2 ~table_bits:10 () in
  List.iter (Predictor_ref.Dfcm.update p) [ 0; 7; 14; 21; 28 ];
  checkoi "predicts the next stride step" (Some 35)
    (Predictor_ref.Dfcm.predict p)

let test_dfcm_stride_pattern () =
  (* alternating strides +1/+9: stride prediction fails, DFCM learns it *)
  let values =
    List.concat (List.init 100 (fun i -> [ 10 * i; (10 * i) + 1 ]))
  in
  let dfcm =
    Predictor_ref.accuracy_of
      (Vp_predict.Predictor.Dfcm { order = 2; table_bits = 10 })
      values
  in
  let stride = Predictor_ref.accuracy_of Vp_predict.Predictor.Stride values in
  checkb "dfcm learns alternating strides" true (dfcm > 0.9);
  checkb "2-delta stride cannot" true (stride < 0.2)

let test_dfcm_reset () =
  let p = Predictor_ref.Dfcm.create () in
  List.iter (Predictor_ref.Dfcm.update p) [ 1; 2; 3; 4 ];
  Predictor_ref.Dfcm.reset p;
  checkoi "cold after reset" None (Predictor_ref.Dfcm.predict p)

(* --- Hybrid --- *)

let test_hybrid_tracks_better_component () =
  let h = Predictor_ref.Hybrid.create ~order:2 ~table_bits:10 () in
  (* strided stream: stride component should win *)
  List.iter (Predictor_ref.Hybrid.update h) (List.init 60 (fun i -> 5 * i));
  let stride_acc, fcm_acc = Predictor_ref.Hybrid.component_accuracies h in
  checkb "stride component better" true (stride_acc > fcm_acc);
  checkoi "predicts stride" (Some 300) (Predictor_ref.Hybrid.predict h)

let test_hybrid_max_rule () =
  (* On each stream family the hybrid should track the better component,
     which is the paper's profiling rule. *)
  let streams =
    [
      Vp_workload.Value_stream.Strided { base = 0; stride = 8 };
      Vp_workload.Value_stream.Periodic { period = 3 };
    ]
  in
  List.iter
    (fun shape ->
      let sample () =
        Vp_workload.Value_stream.take
          (Vp_workload.Value_stream.create (Vp_util.Rng.create 5) shape)
          500
      in
      let hybrid =
        Predictor_ref.accuracy_of
          (Vp_predict.Predictor.Hybrid_stride_fcm
             { order = 2; table_bits = 10 })
          (sample ())
      in
      let stride =
        Predictor_ref.accuracy_of Vp_predict.Predictor.Stride (sample ())
      in
      let fcm =
        Predictor_ref.accuracy_of
          (Vp_predict.Predictor.Fcm { order = 2; table_bits = 10 })
          (sample ())
      in
      checkb "hybrid close to max" true
        (hybrid >= Float.max stride fcm -. 0.1))
    streams

(* --- Predictor umbrella --- *)

let test_accuracy_empty () =
  checkf "empty accuracy" 0.0
    (Predictor_ref.accuracy_of Vp_predict.Predictor.Stride [])

let test_accuracy_resets () =
  let p = Predictor_ref.instantiate Vp_predict.Predictor.Last_value in
  let a1 = Predictor_ref.accuracy p [ 1; 1; 1; 1 ] in
  let a2 = Predictor_ref.accuracy p [ 2; 2; 2; 2 ] in
  checkf "same accuracy after reset" a1 a2;
  checkf "3 of 4 correct" 0.75 a1

let test_instantiate_kinds () =
  List.iter
    (fun kind ->
      let p = Predictor_ref.instantiate kind in
      checkb "cold predictor returns None" true
        (p.Predictor_ref.predict () = None);
      p.Predictor_ref.update 5;
      (* after training on a constant it should eventually predict *)
      p.Predictor_ref.update 5;
      p.Predictor_ref.update 5;
      ignore (p.Predictor_ref.predict ()))
    [
      Vp_predict.Predictor.Last_value;
      Vp_predict.Predictor.Stride;
      Vp_predict.Predictor.Fcm { order = 2; table_bits = 8 };
      Vp_predict.Predictor.Hybrid_stride_fcm { order = 2; table_bits = 8 };
    ]

(* --- Confidence --- *)

let test_confidence () =
  let c = Vp_predict.Confidence.create ~bits:2 ~threshold:2 () in
  checkb "cold not confident" false (Vp_predict.Confidence.confident c);
  Vp_predict.Confidence.record_hit c;
  Vp_predict.Confidence.record_hit c;
  checkb "confident after 2 hits" true (Vp_predict.Confidence.confident c);
  Vp_predict.Confidence.record_hit c;
  Vp_predict.Confidence.record_hit c;
  checki "saturates at 3" 3 (Vp_predict.Confidence.value c);
  Vp_predict.Confidence.record_miss c;
  checki "decrements" 2 (Vp_predict.Confidence.value c);
  Vp_predict.Confidence.record_miss_reset c;
  checki "reset policy" 0 (Vp_predict.Confidence.value c);
  Vp_predict.Confidence.record_miss c;
  checki "floor at 0" 0 (Vp_predict.Confidence.value c)

let test_confidence_validation () =
  checkb "threshold beyond range" true
    (try
       ignore (Vp_predict.Confidence.create ~bits:2 ~threshold:9 ());
       false
     with Invalid_argument _ -> true)

(* --- Vp_table --- *)

let test_vp_table_trains () =
  let t = Vp_predict.Vp_table.create ~entries:64 () in
  Alcotest.(check (option int)) "cold" None
    (Vp_predict.Vp_table.predict t ~pc:100);
  Vp_predict.Vp_table.train t ~pc:100 ~actual:5;
  Alcotest.(check (option int)) "after one constant" (Some 5)
    (Vp_predict.Vp_table.predict t ~pc:100)

let test_vp_table_per_pc () =
  let t = Vp_predict.Vp_table.create ~entries:64 () in
  Vp_predict.Vp_table.train t ~pc:1 ~actual:10;
  Vp_predict.Vp_table.train t ~pc:2 ~actual:20;
  Alcotest.(check (option int)) "pc 1" (Some 10)
    (Vp_predict.Vp_table.predict t ~pc:1);
  Alcotest.(check (option int)) "pc 2" (Some 20)
    (Vp_predict.Vp_table.predict t ~pc:2)

let test_vp_table_predict_and_train () =
  let t = Vp_predict.Vp_table.create ~entries:64 () in
  checkb "cold miss" false
    (Vp_predict.Vp_table.predict_and_train t ~pc:7 ~actual:3);
  checkb "then hit" true
    (Vp_predict.Vp_table.predict_and_train t ~pc:7 ~actual:3)

let test_vp_table_aliasing () =
  (* A tiny 1-entry table: the second PC evicts the first. *)
  let t = Vp_predict.Vp_table.create ~entries:1 () in
  Vp_predict.Vp_table.train t ~pc:1 ~actual:10;
  Alcotest.(check (option int)) "trained" (Some 10)
    (Vp_predict.Vp_table.predict t ~pc:1);
  Vp_predict.Vp_table.train t ~pc:2 ~actual:20;
  (* pc 1 re-claims the entry, losing its history *)
  Alcotest.(check (option int)) "evicted by aliasing" None
    (Vp_predict.Vp_table.predict t ~pc:1)

let test_vp_table_untagged () =
  (* untagged 1-entry table: aliasing PCs share history instead of evicting *)
  let t = Vp_predict.Vp_table.create ~entries:1 ~tagged:false () in
  Vp_predict.Vp_table.train t ~pc:1 ~actual:10;
  Vp_predict.Vp_table.train t ~pc:2 ~actual:10;
  (* the shared entry saw a constant 10 twice: both PCs now predict it *)
  Alcotest.(check (option int)) "pc 1 predicts shared history" (Some 10)
    (Vp_predict.Vp_table.predict t ~pc:1);
  Alcotest.(check (option int)) "pc 2 too" (Some 10)
    (Vp_predict.Vp_table.predict t ~pc:2)

let test_vp_table_confidence_gating () =
  let t = Vp_predict.Vp_table.create ~entries:16 ~use_confidence:true () in
  Vp_predict.Vp_table.train t ~pc:3 ~actual:8;
  (* predictor knows the value but confidence is still 0 *)
  Alcotest.(check (option int)) "gated" None
    (Vp_predict.Vp_table.predict t ~pc:3);
  Vp_predict.Vp_table.train t ~pc:3 ~actual:8;
  Vp_predict.Vp_table.train t ~pc:3 ~actual:8;
  Alcotest.(check (option int)) "confident" (Some 8)
    (Vp_predict.Vp_table.predict t ~pc:3)

let test_vp_table_validation_and_utilization () =
  checkb "non power of two rejected" true
    (try ignore (Vp_predict.Vp_table.create ~entries:3 ()); false
     with Invalid_argument _ -> true);
  let t = Vp_predict.Vp_table.create ~entries:64 () in
  checkf "empty utilization" 0.0 (Vp_predict.Vp_table.utilization t);
  Vp_predict.Vp_table.train t ~pc:1 ~actual:1;
  checkb "utilization grows" true (Vp_predict.Vp_table.utilization t > 0.0);
  checki "entries" 64 (Vp_predict.Vp_table.entries t)

(* --- Property tests --- *)

let prop_stride_perfect_on_arithmetic =
  QCheck.Test.make ~name:"stride is near-perfect on arithmetic sequences"
    ~count:100
    QCheck.(pair (int_range (-1000) 1000) (int_range (-50) 50))
    (fun (base, stride) ->
      let values = List.init 64 (fun i -> base + (stride * i)) in
      Predictor_ref.accuracy_of Vp_predict.Predictor.Stride values >= 0.95)

let prop_accuracy_bounds =
  QCheck.Test.make ~name:"accuracy always lies in [0, 1]" ~count:100
    QCheck.(small_list int)
    (fun values ->
      List.for_all
        (fun kind ->
          let a = Predictor_ref.accuracy_of kind values in
          a >= 0.0 && a <= 1.0)
        [
          Vp_predict.Predictor.Last_value;
          Vp_predict.Predictor.Stride;
          Vp_predict.Predictor.Fcm { order = 2; table_bits = 8 };
          Vp_predict.Predictor.Dfcm { order = 2; table_bits = 8 };
          Vp_predict.Predictor.Hybrid_stride_fcm { order = 2; table_bits = 8 };
        ])

(* The unboxed kernels in [Kernel] are an independent reimplementation
   of the closure predictors in [Predictor_ref]; this property pins them
   to the closures as oracle across every kind and a range of FCM
   geometries. Values stay far from [min_int], which the kernels reserve
   as the "no prediction" sentinel. *)
let prop_kernel_matches_closures =
  QCheck.Test.make ~name:"unboxed kernels match closure predictors" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 0 80) (int_range (-10_000) 10_000))
        (pair (int_range 1 3) (int_range 4 8)))
    (fun (values, (order, table_bits)) ->
      let kinds =
        [
          Vp_predict.Predictor.Last_value;
          Vp_predict.Predictor.Stride;
          Vp_predict.Predictor.Fcm { order; table_bits };
          Vp_predict.Predictor.Dfcm { order; table_bits };
          Vp_predict.Predictor.Hybrid_stride_fcm { order; table_bits };
        ]
      in
      let arr = Array.of_list values in
      let kernel =
        Vp_predict.Kernel.accuracies ~kinds arr ~off:0 ~len:(Array.length arr)
      in
      List.for_all2
        (fun kind k -> Float.equal k (Predictor_ref.accuracy_of kind values))
        kinds
        (Array.to_list kernel))

(* A reusable pass must equal the per-call driver on every run — both the
   fused Stride+FCM(order 2) fast path and the generic path — including
   after arbitrary reuse: the first run's state (in particular stale FCM
   table slots, which the fused path retires by epoch rather than by
   clearing) must never leak into the second run's counts. Small value
   ranges and tiny tables maximize slot collisions. *)
let prop_pass_matches_hit_counts =
  QCheck.Test.make ~name:"reusable pass matches hit_counts across reuse"
    ~count:200
    QCheck.(
      triple
        (list_of_size Gen.(int_range 0 80) (int_range (-50) 50))
        (list_of_size Gen.(int_range 0 80) (int_range (-50) 50))
        (pair bool (pair (int_range 1 3) (int_range 4 6))))
    (fun (first, second, (fused, (order, table_bits))) ->
      let kinds =
        if fused then
          [
            Vp_predict.Predictor.Stride;
            Vp_predict.Predictor.Fcm { order = 2; table_bits };
          ]
        else
          [
            Vp_predict.Predictor.Last_value;
            Vp_predict.Predictor.Stride;
            Vp_predict.Predictor.Fcm { order; table_bits };
            Vp_predict.Predictor.Dfcm { order; table_bits };
          ]
      in
      let pass = Vp_predict.Kernel.make_pass ~kinds in
      let matches values =
        let arr = Array.of_list values in
        let len = Array.length arr in
        let expect = Vp_predict.Kernel.hit_counts ~kinds arr ~off:0 ~len in
        Vp_predict.Kernel.run_pass pass arr ~off:0 ~len;
        Array.length expect = Vp_predict.Kernel.pass_size pass
        && Array.for_all Fun.id
             (Array.mapi
                (fun j h -> Vp_predict.Kernel.pass_hit pass j = h)
                expect)
      in
      matches first && matches second)

(* Deterministic version of the staleness case: the first run teaches the
   FCM that history (1, 2) is followed by 3; the second run over the same
   values must behave as a fresh table (no prediction at that history),
   so a pass that fails to retire old slots reports a phantom hit. *)
let test_pass_epoch_isolation () =
  let kinds =
    [
      Vp_predict.Predictor.Stride;
      Vp_predict.Predictor.Fcm { order = 2; table_bits = 4 };
    ]
  in
  let pass = Vp_predict.Kernel.make_pass ~kinds in
  let values = [| 1; 2; 3 |] in
  Vp_predict.Kernel.run_pass pass values ~off:0 ~len:3;
  Alcotest.(check int) "fcm hits, first run" 0 (Vp_predict.Kernel.pass_hit pass 1);
  Vp_predict.Kernel.run_pass pass values ~off:0 ~len:3;
  Alcotest.(check int) "fcm hits, reused run" 0 (Vp_predict.Kernel.pass_hit pass 1)

(* The profiling hot loop must not allocate: a warm pass replaying a
   2000-value arena should cost ~0 minor words per run. *)
let test_pass_allocation () =
  let kinds =
    [
      Vp_predict.Predictor.Stride;
      Vp_predict.Predictor.Fcm { order = 2; table_bits = 12 };
    ]
  in
  let pass = Vp_predict.Kernel.make_pass ~kinds in
  let values = Array.init 2000 (fun i -> i * 7 land 1023) in
  for _ = 1 to 3 do
    Vp_predict.Kernel.run_pass pass values ~off:0 ~len:2000
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 100 do
    Vp_predict.Kernel.run_pass pass values ~off:0 ~len:2000
  done;
  let per_run = (Gc.minor_words () -. before) /. 100.0 in
  Alcotest.(check bool)
    (Printf.sprintf "pass allocates ~0 minor words per run (got %.1f)" per_run)
    true (per_run < 64.0)

let test_kernel_validation () =
  checkb "bad order rejected" true
    (try
       ignore
         (Vp_predict.Kernel.create
            (Vp_predict.Predictor.Fcm { order = 0; table_bits = 8 }));
       false
     with Invalid_argument _ -> true);
  checkb "bad slice rejected" true
    (try
       ignore
         (Vp_predict.Kernel.hit_counts
            ~kinds:[ Vp_predict.Predictor.Last_value ]
            [| 1; 2; 3 |] ~off:1 ~len:3);
       false
     with Invalid_argument _ -> true)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "vp_predict"
    [
      ("last_value", [ tc "basic" test_last_value ]);
      ( "stride",
        [
          tc "constant" test_stride_constant;
          tc "arithmetic" test_stride_arithmetic;
          tc "two delta" test_stride_two_delta;
          tc "accuracy on stream" test_stride_accuracy_on_stream;
        ] );
      ( "fcm",
        [
          tc "learns period" test_fcm_learns_period;
          tc "cold and reset" test_fcm_cold_and_reset;
          tc "beats stride on chains" test_fcm_beats_stride_on_pointer_chain;
          tc "validation" test_fcm_validation;
        ] );
      ( "dfcm",
        [
          tc "strided" test_dfcm_strided;
          tc "stride pattern" test_dfcm_stride_pattern;
          tc "reset" test_dfcm_reset;
        ] );
      ( "hybrid",
        [
          tc "tracks better component" test_hybrid_tracks_better_component;
          tc "max rule" test_hybrid_max_rule;
        ] );
      ( "predictor",
        [
          tc "empty accuracy" test_accuracy_empty;
          tc "accuracy resets" test_accuracy_resets;
          tc "instantiate kinds" test_instantiate_kinds;
        ] );
      ( "confidence",
        [
          tc "counter" test_confidence;
          tc "validation" test_confidence_validation;
        ] );
      ( "vp_table",
        [
          tc "trains" test_vp_table_trains;
          tc "per pc" test_vp_table_per_pc;
          tc "predict_and_train" test_vp_table_predict_and_train;
          tc "aliasing" test_vp_table_aliasing;
          tc "untagged sharing" test_vp_table_untagged;
          tc "confidence gating" test_vp_table_confidence_gating;
          tc "validation and utilization" test_vp_table_validation_and_utilization;
        ] );
      ( "kernel",
        [
          tc "validation" test_kernel_validation;
          tc "pass epoch isolation" test_pass_epoch_isolation;
          tc "pass allocation" test_pass_allocation;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_stride_perfect_on_arithmetic;
          QCheck_alcotest.to_alcotest prop_accuracy_bounds;
          QCheck_alcotest.to_alcotest prop_kernel_matches_closures;
          QCheck_alcotest.to_alcotest prop_pass_matches_hit_counts;
        ] );
    ]
