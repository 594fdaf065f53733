(* Predictor tour: how the classic value predictors fare on each value-stream
   shape the workloads use — the data behind choosing stride + FCM for
   profiling (the paper's Section 3 rule keeps the max of the two).

   Run with:  dune exec examples/predictor_tour.exe
*)

let streams =
  [
    ("constant", Vp_workload.Value_stream.Constant 7);
    ("strided", Strided { base = 0; stride = 8 });
    ("periodic-3", Periodic { period = 3 });
    ( "mostly-strided",
      Mostly_strided { base = 0; stride = 4; jump_probability = 0.1 } );
    ("pointer-chain-8", Pointer_chain { nodes = 8 });
    ("random", Random { range = 1 lsl 20 });
  ]

let kinds =
  Vp_predict.Predictor.
    [
      Last_value;
      Stride;
      Fcm { order = 2; table_bits = 12 };
      Dfcm { order = 2; table_bits = 12 };
      Hybrid_stride_fcm { order = 2; table_bits = 12 };
    ]

let () =
  let samples = 2000 in
  let table =
    Vp_util.Table.create
      ~title:
        (Printf.sprintf
           "Prediction accuracy over %d values (profiling convention: cold \
            misses count)"
           samples)
      (("stream", Vp_util.Table.Left)
      :: List.map
           (fun k -> (Vp_predict.Predictor.kind_name k, Vp_util.Table.Right))
           kinds)
  in
  List.iter
    (fun (stream_name, shape) ->
      let rng = Vp_util.Rng.create 7 in
      let values =
        Array.of_list
          (Vp_workload.Value_stream.take
             (Vp_workload.Value_stream.create rng shape)
             samples)
      in
      let cells =
        Array.to_list
          (Array.map (Printf.sprintf "%.3f")
             (Vp_predict.Kernel.accuracies ~kinds values ~off:0 ~len:samples))
      in
      Vp_util.Table.add_row table (stream_name :: cells))
    streams;
  print_string (Vp_util.Table.render table);

  (* The same comparison through the hardware value-prediction table, with
     PC aliasing and confidence gating. *)
  let vpt = Vp_predict.Vp_table.create ~entries:64 ~use_confidence:true () in
  let rng = Vp_util.Rng.create 11 in
  let hits = ref 0 and total = ref 0 in
  let streams =
    List.mapi
      (fun pc (_, shape) ->
        (pc * 401, Vp_workload.Value_stream.create rng shape))
      streams
  in
  for _ = 1 to samples do
    List.iter
      (fun (pc, stream) ->
        let v = Vp_workload.Value_stream.next stream in
        if Vp_predict.Vp_table.predict_and_train vpt ~pc ~actual:v then
          incr hits;
        incr total)
      streams
  done;
  Printf.printf
    "\nhardware VP table (64 entries, 2-bit confidence): %.3f accuracy over \
     all streams, %.0f%% of entries in use\n"
    (float_of_int !hits /. float_of_int !total)
    (100.0 *. Vp_predict.Vp_table.utilization vpt)
