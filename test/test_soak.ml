(* Soak tests: sweep the full pipeline across seeds and benchmarks,
   asserting the invariants that the rest of the suite checks at one seed
   hold everywhere — no exceptions, structural invariants, scenario
   probability mass, and sane headline metrics. *)

let checkb = Alcotest.(check bool)

let config_for seed =
  {
    Vliw_vp.Config.default with
    seed;
    trace_length = 500;
    monte_carlo_draws = 8;
  }

let test_seed_sweep () =
  List.iter
    (fun model ->
      List.iter
        (fun seed ->
          let p = Vliw_vp.Pipeline.run ~config:(config_for seed) model in
          Array.iter
            (fun (b : Vliw_vp.Pipeline.block_eval) ->
              match b.spec with
              | None -> ()
              | Some spec -> (
                  (match Vp_vspec.Spec_block.invariant spec.sb with
                  | Ok () -> ()
                  | Error e ->
                      Alcotest.failf "%s seed %d block %d: %s"
                        model.Vp_workload.Spec_model.name seed b.index e);
                  let mass =
                    List.fold_left
                      (fun acc (s : Vliw_vp.Pipeline.scenario_eval) ->
                        acc +. s.probability)
                      0.0 spec.scenarios
                  in
                  checkb "probability mass" true (abs_float (mass -. 1.0) < 1e-6);
                  checkb "best <= worst" true
                    (spec.best.Vp_engine.Dual_engine.cycles
                    <= spec.worst.Vp_engine.Dual_engine.cycles)))
            p.blocks)
        [ 1; 2; 3 ])
    Vp_workload.Spec_model.all

let test_stability_bands () =
  (* schedule-length ratios are the calibration's stable core: across seeds
     they must stay inside the paper's plausible band *)
  let g = Vp_exec.Graph.create Vp_exec.Context.sequential in
  let rows =
    Vp_exec.Graph.await g
      (Vliw_vp.Experiments.stability g
         ~config:{ Vliw_vp.Config.default with trace_length = 500 }
         ~seeds:[ 42; 7; 1234 ] Vp_workload.Spec_model.all)
  in
  List.iter
    (fun (r : Vliw_vp.Experiments.stability_row) ->
      checkb (r.stability_bench ^ ": t3 in band") true
        (r.t3_mean > 0.70 && r.t3_mean < 1.0);
      checkb (r.stability_bench ^ ": t3 stable") true (r.t3_sd < 0.06);
      checkb (r.stability_bench ^ ": t2 in band") true
        (r.t2_mean > 0.15 && r.t2_mean < 0.85))
    rows

let test_widths_sweep () =
  (* every machine width runs the full pipeline cleanly *)
  List.iter
    (fun width ->
      let config =
        Vliw_vp.Config.with_width width (config_for 42)
      in
      let s =
        Vliw_vp.Experiments.run_benchmark ~config Vp_workload.Spec_model.li
      in
      checkb "ratio sane" true (s.ratios.best > 0.5 && s.ratios.best <= 1.1))
    [ 2; 4; 8; 16 ]

let () =
  Alcotest.run "soak"
    [
      ( "sweeps",
        [
          Alcotest.test_case "seeds x benchmarks" `Slow test_seed_sweep;
          Alcotest.test_case "stability bands" `Slow test_stability_bands;
          Alcotest.test_case "machine widths" `Slow test_widths_sweep;
        ] );
    ]
