let fence buf body =
  Buffer.add_string buf "```\n";
  Buffer.add_string buf body;
  if body <> "" && body.[String.length body - 1] <> '\n' then
    Buffer.add_char buf '\n';
  Buffer.add_string buf "```\n\n"

let heading buf level title =
  Buffer.add_string buf (String.make level '#');
  Buffer.add_char buf ' ';
  Buffer.add_string buf title;
  Buffer.add_string buf "\n\n"

let paragraph buf text =
  Buffer.add_string buf text;
  Buffer.add_string buf "\n\n"

let ablation_sweeps =
  [
    ("Profile threshold", Experiments.threshold_sweep);
    ("Prediction budget", Experiments.prediction_budget_sweep);
    ("CCB capacity", Experiments.ccb_capacity_sweep);
    ("Synchronization-register width", Experiments.sync_width_sweep);
    ("CCE retire width", Experiments.cce_width_sweep);
    ("Latency accounting", Experiments.accounting_sweep);
  ]

let generate ?(config = Config.default)
    ?(exec = Vp_exec.Context.sequential)
    ?(models = Vp_workload.Spec_model.all) ?(include_extensions = true) () =
  let buf = Buffer.create 16_384 in
  heading buf 1 "Value Prediction in VLIW Machines — evaluation report";
  paragraph buf
    (Printf.sprintf
       "Generated by the reproduction harness: %d-wide machine, profile \
        threshold %.2f, seed %d, %d benchmark(s). Every number below is \
        deterministic in this configuration."
       config.Config.width config.policy.Vp_vspec.Policy.threshold
       config.seed (List.length models));
  (* Declare every experiment on one graph before the first await: the
     scheduler runs the union barrier-free (a slow benchmark in one table
     no longer gates another table's jobs), and jobs that several tables
     share — [run_all]'s summaries, [table4]'s narrow-width points, and
     the comparison leaf at the configured branch penalty — are
     deduplicated while in flight. Awaits then happen in render
     order; results are per-key deterministic, so the document is
     byte-identical to the old one-experiment-at-a-time code. *)
  let module S = Experiments.Suite in
  let g = Vp_exec.Graph.create exec in
  let summaries_n = S.run_all g ~config models in
  let table4_n = S.table4 g ~config models in
  let comparison_n = S.comparison g ~config models in
  let extensions =
    if not include_extensions then None
    else
      let ablation =
        match models with
        | [] -> None
        | ablation_model :: _ ->
            Some
              ( ablation_model,
                List.map
                  (fun (title, sweep) ->
                    (title, S.ablate g ~config ablation_model sweep))
                  ablation_sweeps,
                S.recovery_sensitivity g ~config ablation_model )
      in
      Some
        ( S.regions g ~config models,
          S.hyperblocks g ~config models,
          S.overlap_validation g ~config models,
          S.stability g ~config models,
          S.hardware_validation g ~config models,
          ablation )
  in
  let await n = Vp_exec.Graph.await g n in
  let summaries = await summaries_n in

  heading buf 2 "Table 2 — execution-time fractions";
  fence buf (Experiments.render_table2 summaries);
  heading buf 2 "Table 3 — effective schedule-length fractions";
  fence buf (Experiments.render_table3 summaries);
  heading buf 2 "Table 4 — issue width 4 vs 8";
  fence buf (Experiments.render_table4 (await table4_n));
  heading buf 2 "Figure 8 — schedule-length change distribution";
  fence buf (Experiments.render_figure8 summaries);
  heading buf 2 "Comparison with the static-recovery scheme";
  fence buf (Experiments.render_comparison (await comparison_n));
  heading buf 2 "Worked example (Figures 2/3)";
  fence buf (Format.asprintf "%a" Example.describe ());

  (match extensions with
  | None -> ()
  | Some (regions_n, hyper_n, overlap_n, stability_n, hardware_n, ablation) ->
      heading buf 2 "Extension: superblock regions";
      fence buf (Experiments.render_regions (await regions_n));
      heading buf 2 "Extension: hyperblocks";
      fence buf (Experiments.render_hyperblocks (await hyper_n));
      heading buf 2 "Extension: overlap validation";
      fence buf (Experiments.render_overlap (await overlap_n));
      heading buf 2 "Seed stability";
      fence buf (Experiments.render_stability (await stability_n));
      heading buf 2 "Extension: hardware-mode validation";
      fence buf (Trace_sim.render (await hardware_n));
      heading buf 2 "Ablations";
      match ablation with
      | None -> ()
      | Some (ablation_model, sweeps, recovery_n) ->
          List.iter
            (fun (title, node) ->
              heading buf 3 title;
              fence buf (Experiments.render_ablation ~title (await node)))
            sweeps;
          heading buf 3 "Recovery sensitivity";
          fence buf
            (Experiments.render_recovery_sensitivity
               ~bench:ablation_model.Vp_workload.Spec_model.name
               (await recovery_n)));
  Buffer.contents buf

let write_file ?config ?exec ?models ?include_extensions ~path () =
  let doc = generate ?config ?exec ?models ?include_extensions () in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc doc)
