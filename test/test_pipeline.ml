(* Tests for the vliw_vp facade: configuration, the end-to-end pipeline, and
   the experiment layer. Uses a reduced configuration to stay fast. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

let fast_config =
  { Vliw_vp.Config.default with trace_length = 2_000; monte_carlo_draws = 16 }

let model = Vp_workload.Spec_model.compress
let pipeline = Vliw_vp.Pipeline.run ~config:fast_config model

(* --- Config --- *)

let test_config () =
  checki "default width" 4 Vliw_vp.Config.default.width;
  checki "with_width" 8 (Vliw_vp.Config.with_width 8 fast_config).width;
  checki "machine width" 8
    (Vp_machine.Descr.issue_width
       (Vliw_vp.Config.machine (Vliw_vp.Config.with_width 8 fast_config)));
  checkb "icache geometry" true
    (Vp_cache.Icache.line_bytes (Vliw_vp.Config.icache fast_config)
    = fast_config.icache_line_bytes)

let test_effective_cycles () =
  let r =
    {
      Vp_engine.Dual_engine.cycles = 20;
      vliw_cycles = 15;
      stall_cycles = 0;
      flushed = 0;
      recomputed = 0;
      ccb_high_water = 0;
      mispredicted = 0;
      final_regs = [];
      stores = [];
    }
  in
  checki "overlap accounting" 15 (Vliw_vp.Config.effective_cycles fast_config r);
  checki "full drain accounting" 20
    (Vliw_vp.Config.effective_cycles
       { fast_config with charge_cce_drain = true }
       r)

(* --- Pipeline --- *)

let test_pipeline_structure () =
  checki "one eval per block" model.num_blocks (Array.length pipeline.blocks);
  Array.iteri
    (fun i (b : Vliw_vp.Pipeline.block_eval) ->
      checki "index" i b.index;
      checkb "count positive" true (b.count > 0);
      checkb "original cycles positive" true (b.original_cycles > 0);
      match (b.spec, b.skip_reason) with
      | Some _, None | None, Some _ -> ()
      | _ -> Alcotest.fail "spec and skip_reason must be exclusive")
    pipeline.blocks

let test_pipeline_probabilities () =
  Array.iter
    (fun (b : Vliw_vp.Pipeline.block_eval) ->
      match b.spec with
      | None -> ()
      | Some spec ->
          let total =
            List.fold_left
              (fun acc (s : Vliw_vp.Pipeline.scenario_eval) ->
                acc +. s.probability)
              0.0 spec.scenarios
          in
          checkb "scenario probabilities sum to ~1" true
            (abs_float (total -. 1.0) < 1e-6);
          checkb "p_all_correct in [0,1]" true
            (spec.p_all_correct >= 0.0 && spec.p_all_correct <= 1.0);
          checkb "rates within threshold" true
            (Array.for_all
               (fun r -> r >= fast_config.policy.threshold)
               spec.rates))
    pipeline.blocks

let test_pipeline_best_consistency () =
  Array.iter
    (fun (b : Vliw_vp.Pipeline.block_eval) ->
      match b.spec with
      | None -> ()
      | Some spec ->
          checki "best = static spec schedule"
            (Vp_sched.Schedule.length spec.sb.schedule)
            spec.best.Vp_engine.Dual_engine.cycles;
          checkb "worst >= best" true
            (spec.worst.Vp_engine.Dual_engine.cycles
            >= spec.best.Vp_engine.Dual_engine.cycles))
    pipeline.blocks

let test_pipeline_stats_reduction () =
  let stats = Vliw_vp.Pipeline.stats pipeline in
  checki "same arity" (Array.length pipeline.blocks) (Array.length stats);
  Array.iteri
    (fun i (s : Vp_metrics.Summary.block_stats) ->
      checki "counts carried" pipeline.blocks.(i).count s.count;
      match (s.speculated, pipeline.blocks.(i).spec) with
      | None, None -> ()
      | Some m, Some e ->
          checki "predictions" (Array.length e.rates) m.predictions;
          checkb "expected between best and worst" true
            (m.expected_cycles >= float_of_int m.best_cycles -. 1e-9)
      | _ -> Alcotest.fail "speculation mismatch")
    stats

let test_pipeline_determinism () =
  let p2 = Vliw_vp.Pipeline.run ~config:fast_config model in
  let digest (p : Vliw_vp.Pipeline.t) =
    Array.map
      (fun (b : Vliw_vp.Pipeline.block_eval) ->
        ( b.original_cycles,
          Option.map
            (fun (s : Vliw_vp.Pipeline.spec_eval) ->
              (s.best.Vp_engine.Dual_engine.cycles,
               s.worst.Vp_engine.Dual_engine.cycles))
            b.spec ))
      p.blocks
  in
  checkb "bit-identical rerun" true (digest pipeline = digest p2)

(* Every result the pipeline reports for a speculated block — each
   scenario's, and the best/worst columns — must equal the interpreting
   spec engine on the same outcomes. Three machine shapes: the default;
   li with a 2-entry CCB retiring 2 per cycle, under the CCB ablation's
   3-bit sync budget that keeps the speculation set inside the buffer
   (CCB 2 without that cap deadlocks li's block 5); and swim on the
   8-wide machine. *)
let pp_engine_result ppf (r : Vp_engine.Dual_engine.result) =
  Format.fprintf ppf
    "{cycles=%d; vliw=%d; stalls=%d; flushed=%d; recomputed=%d; high=%d; \
     mispred=%d; %d regs; %d stores}"
    r.cycles r.vliw_cycles r.stall_cycles r.flushed r.recomputed
    r.ccb_high_water r.mispredicted (List.length r.final_regs)
    (List.length r.stores)

let engine_result = Alcotest.testable pp_engine_result ( = )

let test_pipeline_matches_spec_engine () =
  let default = Vliw_vp.Config.default in
  let ccb2 =
    {
      default with
      ccb_capacity = Some 2;
      cce_retire_width = 2;
      policy = { default.policy with Vp_vspec.Policy.max_sync_bits = 3 };
    }
  in
  List.iter
    (fun (label, model, (config : Vliw_vp.Config.t)) ->
      let p = Vliw_vp.Pipeline.run ~config model in
      let checked = ref 0 in
      Array.iter
        (fun (b : Vliw_vp.Pipeline.block_eval) ->
          match b.spec with
          | None -> ()
          | Some spec ->
              let reference =
                Vliw_vp.Pipeline.reference_of_block p b.index
              in
              let check what outcomes got =
                incr checked;
                Alcotest.check engine_result
                  (Printf.sprintf "%s, block %d, %s" label b.index what)
                  (Vp_engine.Dual_engine.run
                     ?ccb_capacity:config.ccb_capacity
                     ~cce_retire_width:config.cce_retire_width spec.sb
                     ~reference ~live_in:Vp_engine.Reference.live_in ~outcomes)
                  got
              in
              let n = Array.length spec.rates in
              List.iter
                (fun (s : Vliw_vp.Pipeline.scenario_eval) ->
                  check "scenario" s.outcomes s.result)
                spec.scenarios;
              check "best" (Vp_engine.Scenario.all_correct n) spec.best;
              check "worst" (Vp_engine.Scenario.all_incorrect n) spec.worst)
        p.blocks;
      checkb (label ^ ": speculated blocks checked") true (!checked > 0))
    [
      ("compress default", Vp_workload.Spec_model.compress, default);
      ("li CCB 2", Vp_workload.Spec_model.li, ccb2);
      ("swim width 8", Vp_workload.Spec_model.swim,
       Vliw_vp.Config.with_width 8 default);
    ]

let test_reference_of_block () =
  let r = Vliw_vp.Pipeline.reference_of_block pipeline 0 in
  checkb "reference produced" true (Array.length r.results > 0)

let test_expected_helpers () =
  Array.iter
    (fun (b : Vliw_vp.Pipeline.block_eval) ->
      let rc = Vliw_vp.Pipeline.expected_recovery_cycles b in
      let comp = Vliw_vp.Pipeline.expected_recovery_compensation b in
      let stalls = Vliw_vp.Pipeline.expected_stall_cycles b in
      checkb "recovery >= 0" true (rc >= 0.0);
      checkb "comp >= 0" true (comp >= 0.0);
      checkb "stalls >= 0" true (stalls >= 0.0);
      if b.spec = None then begin
        checkf "unspeculated recovery = original" (float_of_int b.original_cycles) rc;
        checkf "no compensation" 0.0 comp
      end)
    pipeline.blocks

(* --- Experiments --- *)

let summary = Vliw_vp.Experiments.summarize pipeline

let test_summary_shape () =
  Alcotest.(check string) "name" "compress" (Vliw_vp.Experiments.name summary);
  checkb "fractions in [0,1]" true
    (summary.fractions.best >= 0.0 && summary.fractions.best <= 1.0
    && summary.fractions.worst >= 0.0 && summary.fractions.worst <= 1.0);
  checkb "best >> worst" true (summary.fractions.best > summary.fractions.worst);
  checkb "ratios positive" true
    (summary.ratios.best > 0.0 && summary.ratios.worst > 0.0);
  checkb "best case improves schedules" true (summary.ratios.best < 1.0);
  checkb "some blocks speculated" true (summary.speculated_blocks > 0);
  checki "total blocks" model.num_blocks summary.total_blocks

let test_summary_comparison () =
  let c = Vliw_vp.Experiments.comparison_of pipeline in
  checkb "our compensation share is small" true (c.ours_comp_share < 0.10);
  checkb "their share is at least twice ours" true
    (c.recovery_comp_share > 2.0 *. c.ours_comp_share);
  checkb "our expected ratio beats theirs" true
    (c.ours_spec_ratio <= c.recovery_spec_ratio +. 1e-9);
  checkb "their scheme grows the code" true (c.code_growth > 0.0)

(* A summary is what the result store holds for every benchmark and what a
   warm run reads back, so it must stay lean: the byte bound, about 4x the
   measured ~1.8 KB (compress) and ~2.5 KB (li), catches the pipeline
   (workload, program, profile, evaluated blocks) creeping back in, and
   [Marshal] without [Closures] still rejects any closure, which the store
   would silently decline to cache. *)
let test_summary_is_lean () =
  List.iter
    (fun (m : Vp_workload.Spec_model.t) ->
      let s = Vliw_vp.Experiments.run_benchmark ~config:fast_config m in
      match Marshal.to_string s [] with
      | exception Invalid_argument msg ->
          Alcotest.failf "%s: summary does not marshal without closures (%s)"
            m.name msg
      | bytes ->
          let n = String.length bytes in
          if n >= 10_000 then
            Alcotest.failf "%s: summary marshals to %d bytes (bound 10000)"
              m.name n)
    [ Vp_workload.Spec_model.compress; Vp_workload.Spec_model.li ]

let test_renders_mention_benchmarks () =
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun render -> checkb "mentions compress" true (contains (render [ summary ]) "compress"))
    [
      Vliw_vp.Experiments.render_table2;
      Vliw_vp.Experiments.render_table3;
      Vliw_vp.Experiments.render_figure8;
      (fun summaries ->
        Vliw_vp.Experiments.render_comparison
          (List.map
             (fun s ->
               ( Vliw_vp.Experiments.name s,
                 Vliw_vp.Experiments.comparison_of pipeline ))
             summaries));
    ]

let run declare =
  let g = Vp_exec.Graph.create Vp_exec.Context.sequential in
  Vp_exec.Graph.await g (declare g)

let test_table4 () =
  let rows =
    run (fun g -> Vliw_vp.Experiments.table4 g ~config:fast_config [ model ])
  in
  checki "one row" 1 (List.length rows);
  let r = List.hd rows in
  Alcotest.(check string) "bench" "compress" r.bench;
  checkb "narrow fraction consistent with summary" true
    (abs_float (r.narrow_fraction -. summary.fractions.best) < 1e-9);
  checkb "wide ratio sane" true (r.wide_ratio > 0.0 && r.wide_ratio < 1.5);
  checkb "renders" true (String.length (Vliw_vp.Experiments.render_table4 rows) > 0)

(* --- Hardware-mode trace simulation --- *)

let test_trace_sim () =
  let r = Vliw_vp.Trace_sim.run ~executions:1000 pipeline in
  checki "execution count" 1000 r.executions;
  checkb "accuracy in (0,1)" true (r.accuracy > 0.0 && r.accuracy < 1.0);
  checkb "predictions made" true (r.predictions > 0);
  checkb "mispredictions consistent" true
    (r.mispredictions <= r.predictions
    && r.mispredictions
       = r.predictions
         - int_of_float
             (Float.round (r.accuracy *. float_of_int r.predictions)));
  checkb "speedup positive" true (r.speedup > 0.8 && r.speedup < 2.0);
  (* hardware-mode speedup lands near the profile-driven expectation *)
  checkb "close to the profile expectation" true
    (abs_float (r.speedup -. r.profile_speedup) < 0.1);
  checkb "renders" true
    (String.length (Vliw_vp.Trace_sim.render [ ("compress", r) ]) > 0)

let test_trace_sim_confidence_table () =
  (* a confidence-gated table declines cold predictions, trading coverage
     for accuracy; the run must stay sane either way *)
  let gated =
    Vliw_vp.Trace_sim.run ~executions:1000
      ~table:(Vp_predict.Vp_table.create ~entries:512 ~use_confidence:true ())
      pipeline
  in
  let plain = Vliw_vp.Trace_sim.run ~executions:1000 pipeline in
  checki "same prediction count (the code is fixed)" plain.predictions
    gated.predictions;
  checkb "both speedups sane" true
    (gated.speedup > 0.8 && plain.speedup > 0.8)

let test_trace_sim_pc_of () =
  (* pc identities stay distinct across (block, op) pairs within range *)
  checki "block 0 op 0" 0 (Vliw_vp.Trace_sim.pc_of ~block:0 ~op:0);
  checki "block 3 op 7" ((3 * 256) + 7) (Vliw_vp.Trace_sim.pc_of ~block:3 ~op:7);
  checkb "distinct across blocks" true
    (Vliw_vp.Trace_sim.pc_of ~block:1 ~op:0
    <> Vliw_vp.Trace_sim.pc_of ~block:0 ~op:255);
  (* a block wider than the 256-operation stride must fail loudly instead
     of silently aliasing its predictor-table entries into the next block *)
  checkb "wide block rejected" true
    (try
       ignore (Vliw_vp.Trace_sim.pc_of ~block:0 ~op:256);
       false
     with Invalid_argument _ -> true);
  checkb "negative op rejected" true
    (try
       ignore (Vliw_vp.Trace_sim.pc_of ~block:0 ~op:(-1));
       false
     with Invalid_argument _ -> true)

let test_trace_sim_deterministic () =
  let a = Vliw_vp.Trace_sim.run ~executions:500 pipeline in
  let b = Vliw_vp.Trace_sim.run ~executions:500 pipeline in
  checki "same cycles" a.cycles b.cycles;
  checki "same mispredictions" a.mispredictions b.mispredictions

let test_cce_width_helps_worst_case () =
  let at_width w =
    let config = { fast_config with Vliw_vp.Config.cce_retire_width = w } in
    let s = Vliw_vp.Experiments.run_benchmark ~config model in
    s.ratios.worst
  in
  checkb "wider CCE never hurts the worst case" true (at_width 4 <= at_width 1)

let test_recovery_sensitivity () =
  let rows =
    run (fun g ->
        Vliw_vp.Experiments.recovery_sensitivity g ~config:fast_config
          ~penalties:[ 0; 4 ] model)
  in
  checki "two rows" 2 (List.length rows);
  let share p = (List.assoc p rows).recovery_comp_share in
  checkb "higher penalty, higher compensation share" true
    (share 4 > share 0);
  checkb "renders" true
    (String.length
       (Vliw_vp.Experiments.render_recovery_sensitivity ~bench:"compress" rows)
    > 0)

let test_csv_render () =
  let csv = Vliw_vp.Experiments.render_table2 ~format:`Csv [ summary ] in
  checkb "starts with the header" true
    (String.length csv > 10 && String.sub csv 0 9 = "Benchmark");
  checkb "mentions the benchmark" true
    (String.split_on_char '\n' csv
    |> List.exists (fun l ->
           String.length l > 8 && String.sub l 0 8 = "compress"))

(* --- Report generation --- *)

let test_report () =
  let doc = Vliw_vp.Report.generate ~config:fast_config ~models:[ model ] () in
  let find needle =
    let lh = String.length doc and ln = String.length needle in
    let rec go i =
      if i + ln > lh then None
      else if String.sub doc i ln = needle then Some i
      else go (i + 1)
    in
    go 0
  in
  let contains needle = Option.is_some (find needle) in
  checkb "has title" true (contains "# Value Prediction in VLIW Machines");
  checkb "has table 2" true (contains "## Table 2");
  checkb "has the example" true (contains "Worked example");
  checkb "extensions present" true (contains "superblock regions");
  (* every ablation sweep is a section, in the sweep list's order *)
  ignore
    (List.fold_left
       (fun after (a : Vliw_vp.Experiments.ablation) ->
         match find ("\n### " ^ a.sweep_title ^ "\n") with
         | Some at ->
             checkb (a.sweep_title ^ " in order") true (at > after);
             at
         | None -> Alcotest.failf "no ### %s heading" a.sweep_title)
       (-1) Vliw_vp.Experiments.ablation_sweeps)

let test_report_write_file () =
  let path = Filename.temp_file "vliwvp" ".md" in
  Vliw_vp.Report.write_file ~config:fast_config ~models:[ model ] ~path ();
  let ic = open_in path in
  let len = in_channel_length ic in
  close_in ic;
  Sys.remove path;
  checkb "file written" true (len > 1000)

(* --- The worked example module --- *)

let test_example_module () =
  let sb = Vliw_vp.Example.spec () in
  checki "two predictions" 2 (Vp_vspec.Spec_block.num_predictions sb);
  checkb "invariant" true (Vp_vspec.Spec_block.invariant sb = Ok ());
  checki "eleven original operations" 11
    (Vp_ir.Block.size Vliw_vp.Example.block);
  checki "four cases" 4 (List.length (Vliw_vp.Example.cases ()));
  checkb "describe renders" true
    (String.length (Format.asprintf "%a" Vliw_vp.Example.describe ()) > 200)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "vliw_vp"
    [
      ( "config",
        [ tc "basics" test_config; tc "effective cycles" test_effective_cycles ] );
      ( "pipeline",
        [
          tc "structure" test_pipeline_structure;
          tc "probabilities" test_pipeline_probabilities;
          tc "best consistency" test_pipeline_best_consistency;
          tc "stats reduction" test_pipeline_stats_reduction;
          tc "determinism" test_pipeline_determinism;
          tc "results = spec engine" test_pipeline_matches_spec_engine;
          tc "reference of block" test_reference_of_block;
          tc "expected helpers" test_expected_helpers;
        ] );
      ( "experiments",
        [
          tc "summary shape" test_summary_shape;
          tc "recovery comparison" test_summary_comparison;
          tc "summary is lean" test_summary_is_lean;
          tc "renders mention benchmarks" test_renders_mention_benchmarks;
          tc "table 4" test_table4;
        ] );
      ( "extensions",
        [
          tc "recovery sensitivity" test_recovery_sensitivity;
          tc "csv rendering" test_csv_render;
          tc "report generation" test_report;
          tc "report write_file" test_report_write_file;
          tc "hardware-mode trace sim" test_trace_sim;
          tc "trace sim confidence table" test_trace_sim_confidence_table;
          tc "trace sim pc_of bounds" test_trace_sim_pc_of;
          tc "trace sim deterministic" test_trace_sim_deterministic;
          tc "CCE width helps worst case" test_cce_width_helps_worst_case;
        ] );
      ("example", [ tc "module" test_example_module ]);
    ]
