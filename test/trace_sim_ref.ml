(* Per-execution reference for [Vliw_vp.Trace_sim.run].

   The simulator pre-draws its schedule, batches VP-table touches per slot
   over the workload's shared stream arenas, and replays blocks through a
   compiled kernel behind an outcome-mask memo. This reference does none
   of that and shares none of the simulator's caches: for each execution
   it draws a block with [Rng.weighted_index] from the same
   "hardware-trace" split, reads each predicted load's next value from a
   fresh [Workload.stream] instance, calls [Vp_table.predict_and_train]
   once per predicted load in prediction-index order, and simulates the
   block on the resulting outcomes with the interpreting
   [Dual_engine.run]. test_trace_sim.ml holds [Trace_sim.run] to it on
   results and on the final VP-table state. *)

open Vliw_vp

let run ?(executions = 5000) ?table (p : Pipeline.t) : Trace_sim.result =
  let table =
    match table with
    | Some t -> t
    | None -> Vp_predict.Vp_table.create ~entries:1024 ()
  in
  let config = p.config in
  let rng =
    Vp_util.Rng.split_named (Vp_util.Rng.create config.seed) "hardware-trace"
  in
  let weights =
    Array.map (fun (b : Pipeline.block_eval) -> float_of_int b.count) p.blocks
  in
  let streams = Hashtbl.create 64 in
  let next_value id =
    let s =
      match Hashtbl.find_opt streams id with
      | Some s -> s
      | None ->
          let s = Vp_workload.Workload.stream p.workload id in
          Hashtbl.add streams id s;
          s
    in
    Vp_workload.Value_stream.next s
  in
  let cycles = ref 0 and original_cycles = ref 0 in
  let predictions = ref 0 and mispredictions = ref 0 in
  for _ = 1 to executions do
    let bi = Vp_util.Rng.weighted_index rng weights in
    let b = p.blocks.(bi) in
    original_cycles := !original_cycles + b.original_cycles;
    match b.spec with
    | None -> cycles := !cycles + b.original_cycles
    | Some spec ->
        let predicted = spec.sb.Vp_vspec.Spec_block.predicted in
        let outcomes = Array.make (Array.length predicted) false in
        Array.iteri
          (fun i (pl : Vp_vspec.Spec_block.predicted_load) ->
            let actual = next_value (Option.get pl.stream) in
            let pc = Trace_sim.pc_of ~block:bi ~op:pl.orig_load_id in
            let correct =
              Vp_predict.Vp_table.predict_and_train table ~pc ~actual
            in
            incr predictions;
            if not correct then incr mispredictions;
            outcomes.(i) <- correct)
          predicted;
        let r =
          Vp_engine.Dual_engine.run ?ccb_capacity:config.ccb_capacity
            ~cce_retire_width:config.cce_retire_width spec.sb
            ~reference:(Pipeline.reference_of_block p bi)
            ~live_in:Vp_engine.Reference.live_in ~outcomes
        in
        cycles := !cycles + Config.effective_cycles config r
  done;
  {
    executions;
    cycles = !cycles;
    original_cycles = !original_cycles;
    speedup =
      (if !cycles = 0 then 1.0
       else float !original_cycles /. float !cycles);
    predictions = !predictions;
    mispredictions = !mispredictions;
    accuracy =
      (if !predictions = 0 then 0.0
       else float (!predictions - !mispredictions) /. float !predictions);
    profile_speedup = Vp_metrics.Summary.expected_speedup (Pipeline.stats p);
  }
