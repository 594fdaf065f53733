(* Recovery comparison: the dual-engine architecture against the static
   recovery scheme of paper-reference [4], under aggressive prediction —
   the regime Section 1 argues the static scheme cannot survive: frequent
   mispredictions mean frequent branches into compensation blocks,
   serialized recovery, and instruction-cache pollution.

   Uses the aggressive policy (lower threshold, no critical-path
   restriction, more predictions per block) so mispredictions are common,
   and also reports how large a Compensation Code Buffer the dual-engine
   scheme actually needs.

   Run with:  dune exec examples/recovery_comparison.exe
*)

let () =
  let config =
    {
      Vliw_vp.Config.default with
      policy = Vp_vspec.Policy.aggressive;
    }
  in
  let models =
    [
      Vp_workload.Spec_model.compress;
      Vp_workload.Spec_model.li;
      Vp_workload.Spec_model.vortex;
    ]
  in
  let g = Vp_exec.Graph.create Vp_exec.Context.sequential in
  print_string
    (Vliw_vp.Experiments.render_comparison
       (Vp_exec.Graph.await g
          (Vliw_vp.Experiments.comparison g ~config models)));
  print_newline ();

  (* CCB sizing: the high-water occupancy across every simulated scenario
     tells how much buffering the second engine needs. *)
  let table =
    Vp_util.Table.create ~title:"Compensation Code Buffer demand"
      [
        ("benchmark", Vp_util.Table.Left);
        ("max CCB occupancy", Vp_util.Table.Right);
        ("mean recomputed/block (worst case)", Vp_util.Table.Right);
      ]
  in
  List.iter
    (fun (model : Vp_workload.Spec_model.t) ->
      let p = Vliw_vp.Pipeline.run ~config model in
      let hw = ref 0 and recomputed = ref [] in
      Array.iter
        (fun (b : Vliw_vp.Pipeline.block_eval) ->
          match b.spec with
          | Some spec ->
              List.iter
                (fun (sc : Vliw_vp.Pipeline.scenario_eval) ->
                  hw :=
                    max !hw sc.result.Vp_engine.Dual_engine.ccb_high_water)
                spec.scenarios;
              recomputed :=
                float_of_int spec.worst.Vp_engine.Dual_engine.recomputed
                :: !recomputed
          | None -> ())
        p.blocks;
      Vp_util.Table.add_row table
        [
          model.name;
          string_of_int !hw;
          Printf.sprintf "%.1f" (Vp_util.Stats.mean !recomputed);
        ])
    models;
  print_string (Vp_util.Table.render table);

  (* And the effect of actually bounding the CCB: a tiny buffer stalls the
     VLIW engine on bursts of speculated operations. *)
  print_newline ();
  let model = Vp_workload.Spec_model.vortex in
  List.iter
    (fun capacity ->
      (* bounding the CCB requires bounding the speculation set too — see
         Experiments.ccb_capacity_sweep *)
      let config =
        {
          config with
          Vliw_vp.Config.ccb_capacity = Some capacity;
          policy =
            {
              config.policy with
              Vp_vspec.Policy.max_sync_bits = capacity + 1;
            };
        }
      in
      let s = Vliw_vp.Experiments.run_benchmark ~config model in
      Printf.printf
        "vortex with a %2d-entry CCB: best-case schedule ratio %.3f\n"
        capacity s.ratios.best)
    [ 2; 4; 8; 16 ]
