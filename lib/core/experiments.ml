type comparison = {
  ours_comp_share : float;
  recovery_comp_share : float;
  ours_spec_ratio : float;
  recovery_spec_ratio : float;
  cache_extra_share : float;
  code_growth : float;
}

type benchmark_summary = {
  bench : string;
  stats : Vp_metrics.Summary.block_stats array;
  fractions : Vp_metrics.Summary.time_fractions;
  ratios : Vp_metrics.Summary.length_ratios;
  fig8 : Vp_util.Histogram.t;
  mean_rate : float;
  speculated_blocks : int;
  total_blocks : int;
}

let name s = s.bench

(* A dynamic trace of (block, outcomes) pairs for the cache comparison:
   blocks drawn proportionally to profiled frequency, outcomes drawn from
   the profiled rates. *)
let build_trace (p : Pipeline.t) =
  let config = p.config in
  let rng = Vp_util.Rng.create config.seed in
  let rng = Vp_util.Rng.split_named rng "cache-trace" in
  let blocks =
    Vp_util.Rng.sampler
      (Array.map (fun (b : Pipeline.block_eval) -> float_of_int b.count) p.blocks)
  in
  Array.init config.trace_length (fun _ ->
      let b = Vp_util.Rng.sample rng blocks in
      let outcomes =
        match p.blocks.(b).spec with
        | Some spec -> Vp_engine.Scenario.sample rng ~rates:spec.rates
        | None -> [||]
      in
      (b, outcomes))

(* The icache cost of static recovery: extra miss cycles per block
   execution when compensation blocks share instruction memory, and the
   code growth they cause. *)
let cache_comparison (p : Pipeline.t) =
  let config = p.config in
  (* Exact encoded sizes (the Figure-4 formats); the original schedules of
     unspeculated blocks encode with empty wait masks. *)
  let schedule_bytes s =
    let insns = Vp_sched.Schedule.instructions s in
    try Vp_ir.Encoding.block_bytes ~schedule_instructions:insns
    with Invalid_argument _ ->
      (* configurations beyond the hardware format (e.g. region-scale sync
         budgets) fall back to one word per operation plus headers *)
      Array.fold_left
        (fun acc ops -> acc + 8 + (8 * List.length ops))
        0 insns
  in
  let main_bytes =
    Array.map
      (fun (b : Pipeline.block_eval) ->
        match b.spec with
        | Some spec -> schedule_bytes spec.sb.schedule
        | None ->
            (* unspeculated code has no extension fields: header + one word
               per operation, nops included *)
            8
            * (b.original_instructions
              + Vp_ir.Block.size (Vp_ir.Program.nth p.program b.index).block)
      )
      p.blocks
  in
  let comp_bytes scheme_has_comp =
    Array.map
      (fun (b : Pipeline.block_eval) ->
        match b.spec with
        | Some spec when scheme_has_comp ->
            Array.map
              (fun (cb : Vp_baseline.Static_recovery.comp_block) ->
                schedule_bytes cb.schedule)
              (Vp_baseline.Static_recovery.comp_blocks spec.recovery)
        | Some _ | None -> [||])
      p.blocks
  in
  let layout_recovery =
    Vp_baseline.Layout.build_sized ~main_bytes
      ~comp_bytes:(comp_bytes true) ()
  in
  let layout_dual =
    Vp_baseline.Layout.build_sized ~main_bytes ~comp_bytes:(comp_bytes false)
      ()
  in
  let trace = build_trace p in
  let run_cache layout touch_comp =
    Vp_baseline.Cache_cost.simulate ~icache:(Config.icache config) ~layout
      ~miss_penalty:config.miss_penalty ~touch_comp ~trace
  in
  let recovery_cost = run_cache layout_recovery true in
  let dual_cost = run_cache layout_dual false in
  let extra_per_exec =
    Float.max 0.0
      (recovery_cost.Vp_baseline.Cache_cost.cycles_per_execution
      -. dual_cost.Vp_baseline.Cache_cost.cycles_per_execution)
  in
  (extra_per_exec, Vp_baseline.Layout.code_growth layout_recovery)

let comparison_of (p : Pipeline.t) =
  let total_executions =
    Array.fold_left (fun acc (b : Pipeline.block_eval) -> acc + b.count) 0
      p.blocks
  in
  let sum f =
    Array.fold_left
      (fun acc (b : Pipeline.block_eval) ->
        acc +. (float_of_int b.count *. f b))
      0.0 p.blocks
  in
  let ours_total = Vp_metrics.Summary.total_time (Pipeline.stats p) in
  let ours_stalls = sum Pipeline.expected_stall_cycles in
  let recovery_comp = sum Pipeline.expected_recovery_compensation in
  let cache_extra_per_exec, code_growth = cache_comparison p in
  let cache_extra = cache_extra_per_exec *. float_of_int total_executions in
  let recovery_total = sum Pipeline.expected_recovery_cycles +. cache_extra in
  let spec_orig, spec_ours, spec_recovery =
    Array.fold_left
      (fun (o, u, r) (b : Pipeline.block_eval) ->
        match b.spec with
        | Some spec ->
            let n = float_of_int b.count in
            ( o +. (n *. float_of_int b.original_cycles),
              u
              +. n
                 *. List.fold_left
                      (fun acc (s : Pipeline.scenario_eval) ->
                        acc
                        +. s.probability
                           *. float_of_int
                                (Pipeline.effective p.config s.result))
                      0.0 spec.scenarios,
              r +. (n *. Pipeline.expected_recovery_cycles b) )
        | None -> (o, u, r))
      (0.0, 0.0, 0.0) p.blocks
  in
  {
    ours_comp_share = Vp_util.Stats.ratio ours_stalls ours_total;
    recovery_comp_share =
      Vp_util.Stats.ratio (recovery_comp +. cache_extra) recovery_total;
    ours_spec_ratio = Vp_util.Stats.ratio spec_ours spec_orig;
    recovery_spec_ratio = Vp_util.Stats.ratio spec_recovery spec_orig;
    cache_extra_share = Vp_util.Stats.ratio cache_extra recovery_total;
    code_growth;
  }

let summarize (p : Pipeline.t) =
  let stats = Pipeline.stats p in
  {
    bench = p.model.Vp_workload.Spec_model.name;
    stats;
    fractions = Vp_metrics.Summary.table2 stats;
    ratios = Vp_metrics.Summary.table3 stats;
    fig8 = Vp_metrics.Summary.figure8 stats;
    mean_rate = Vp_profile.Value_profile.mean_rate p.profile;
    speculated_blocks =
      Array.fold_left
        (fun acc (b : Pipeline.block_eval) ->
          if b.spec <> None then acc + 1 else acc)
        0 p.blocks;
    total_blocks = Array.length p.blocks;
  }

let run_benchmark ?config model = summarize (Pipeline.run ?config model)

(* --- Orchestration (Vp_exec) ---

   Every experiment entry point below declares its independent simulations
   as nodes of a caller's job graph, whose execution context holds the
   worker count, the optional content-addressed result store and the
   telemetry sink. *)

(* Content address of one experiment result: the experiment kind, the
   full benchmark model (not just its name — custom models must not
   collide), the full configuration and any extra payload. *)
let job_key ~kind ~(config : Config.t) payload =
  Vp_exec.Store.key (kind, payload, config)

(* One keying helper for every region-formed leaf — the formation params
   ride in the payload as a typed variant, so a superblock point and a
   hyperblock point can never collide however their param records evolve
   (both are records of smallish numbers; marshalled bytes alone would be
   one accidental field reordering away from a collision), and any two
   experiments that evaluate the same (model, params, config) point — the
   plain region tables and a frontier sweep sharing a grid point — share
   one key, and hence one in-flight node or store entry. *)
type region_point =
  | Superblock_point of Vp_region.Superblock.params
  | Hyperblock_point of Vp_region.Hyperblock.params

let region_job_key ~config point (model : Vp_workload.Spec_model.t) =
  job_key ~kind:"region" ~config (point, model)

(* Each experiment declares leaf simulation nodes plus one reducer node
   that folds the leaf values into the experiment's row list, and returns
   the reducer without draining. Leaves are store-cached and share their
   keys across experiments — the graph dedups a key that is merely in
   flight, the store one that already completed. Reducers pass
   [~cache:false]: their inputs are already cached or deduped, and the
   fold is cheaper than its own store round-trip would be. *)

module G = Vp_exec.Graph

let bench_node g ~config (model : Vp_workload.Spec_model.t) =
  G.node g
    ~label:("bench:" ^ model.Vp_workload.Spec_model.name)
    ~key:(job_key ~kind:"benchmark" ~config model)
    (fun () -> run_benchmark ~config model)

let reduce g ~kind ~config ~payload leaves f =
  G.node g ~label:("reduce:" ^ kind) ~cache:false
    ~key:(job_key ~kind:("reduce-" ^ kind) ~config payload)
    ~deps:(List.map G.pack leaves)
    f

let run_all g ~config models =
  let leaves = List.map (bench_node g ~config) models in
  reduce g ~kind:"run_all" ~config ~payload:models leaves (fun () ->
      List.map G.value leaves)

let cell = Vp_util.Table.cell_f

let emit ?(format = `Ascii) table =
  match format with
  | `Ascii -> Vp_util.Table.render table
  | `Csv -> Vp_util.Table.render_csv table

(* Columns of cells with a display unit: an aligned cell carries the unit,
   and in CSV the header names it, so every CSV cell is a number. *)
let unit_column format name unit =
  (Vp_util.Table.unit_header format name unit, Vp_util.Table.Right)

let speedup_cell format x =
  Vp_util.Table.unit_cell format (Printf.sprintf "%.3f" x) "x"

let pct_cell format x =
  Vp_util.Table.unit_cell format (Printf.sprintf "%.1f" (x *. 100.0)) "%"

let render_table2 ?format summaries =
  let table =
    Vp_util.Table.create
      ~title:
        "Table 2: fraction of execution time used by speculated blocks \
         (best case: all predictions correct; worst case: all incorrect)"
      [
        ("Benchmark", Vp_util.Table.Left);
        ("Best case", Vp_util.Table.Right);
        ("Worst case", Vp_util.Table.Right);
      ]
  in
  List.iter
    (fun s ->
      Vp_util.Table.add_row table
        [ name s; cell s.fractions.best; Printf.sprintf "%.4f" s.fractions.worst ])
    summaries;
  let mean f = Vp_util.Stats.mean (List.map f summaries) in
  Vp_util.Table.add_separator table;
  Vp_util.Table.add_row table
    [
      "mean";
      cell (mean (fun s -> s.fractions.best));
      Printf.sprintf "%.4f" (mean (fun s -> s.fractions.worst));
    ];
  emit ?format table

let render_table3 ?format summaries =
  let table =
    Vp_util.Table.create
      ~title:
        "Table 3: effective schedule length of speculated blocks as a \
         fraction of the original schedule"
      [
        ("Benchmark", Vp_util.Table.Left);
        ("Best case", Vp_util.Table.Right);
        ("Worst case", Vp_util.Table.Right);
      ]
  in
  List.iter
    (fun s ->
      Vp_util.Table.add_row table
        [ name s; cell s.ratios.best; cell s.ratios.worst ])
    summaries;
  let mean f = Vp_util.Stats.mean (List.map f summaries) in
  Vp_util.Table.add_separator table;
  Vp_util.Table.add_row table
    [
      "mean";
      cell (mean (fun s -> s.ratios.best));
      cell (mean (fun s -> s.ratios.worst));
    ];
  emit ?format table

type table4_row = {
  bench : string;
  narrow_fraction : float;
  narrow_ratio : float;
  wide_fraction : float;
  wide_ratio : float;
}

let rec pair_table4 models results =
  match (models, results) with
  | [], [] -> []
  | model :: models, n :: w :: results ->
      {
        bench = model.Vp_workload.Spec_model.name;
        narrow_fraction = n.fractions.best;
        narrow_ratio = n.ratios.best;
        wide_fraction = w.fractions.best;
        wide_ratio = w.ratios.best;
      }
      :: pair_table4 models results
  | _ -> invalid_arg "table4: result/model mismatch"

let table4 g ~config ?(narrow = 4) ?(wide = 8) models =
  (* One leaf per (benchmark, width); a width leaf that matches [run_all]'s
     configuration — the default [narrow] does — dedups onto the same node
     when both experiments sit on one graph, and shares its store entry
     otherwise. *)
  let leaves =
    List.concat_map
      (fun model ->
        List.map
          (fun width ->
            bench_node g ~config:(Config.with_width width config) model)
          [ narrow; wide ])
      models
  in
  reduce g ~kind:"table4" ~config ~payload:(models, narrow, wide) leaves
    (fun () -> pair_table4 models (List.map G.value leaves))

let render_table4 ?format rows =
  let table =
    Vp_util.Table.create
      ~title:
        "Table 4: best-case entries of Tables 2 and 3 for two issue widths"
      [
        ("Benchmark", Vp_util.Table.Left);
        ("Time frac (4w)", Vp_util.Table.Right);
        ("Sched frac (4w)", Vp_util.Table.Right);
        ("Time frac (8w)", Vp_util.Table.Right);
        ("Sched frac (8w)", Vp_util.Table.Right);
      ]
  in
  List.iter
    (fun r ->
      Vp_util.Table.add_row table
        [
          r.bench;
          cell r.narrow_fraction;
          cell r.narrow_ratio;
          cell r.wide_fraction;
          cell r.wide_ratio;
        ])
    rows;
  let mean f = Vp_util.Stats.mean (List.map f rows) in
  Vp_util.Table.add_separator table;
  Vp_util.Table.add_row table
    [
      "mean";
      cell (mean (fun r -> r.narrow_fraction));
      cell (mean (fun r -> r.narrow_ratio));
      cell (mean (fun r -> r.wide_fraction));
      cell (mean (fun r -> r.wide_ratio));
    ];
  emit ?format table

let render_figure8 ?(format = `Ascii) summaries =
  let histograms = List.map (fun s -> (name s, s.fig8)) summaries in
  let pooled =
    Vp_metrics.Summary.figure8
      (Array.concat (List.map (fun s -> s.stats) summaries))
  in
  match format with
  | `Ascii ->
      let buf = Buffer.create 512 in
      Buffer.add_string buf
        "Figure 8: distribution of change in schedule lengths due to \
         prediction\n\
         (per executed block, all-correct case; positive = cycles saved)\n\n";
      List.iter
        (fun (bench, histogram) ->
          Buffer.add_string buf bench;
          Buffer.add_char buf '\n';
          Buffer.add_string buf
            (Format.asprintf "%a" Vp_util.Histogram.pp histogram);
          Buffer.add_char buf '\n')
        histograms;
      Buffer.add_string buf "all benchmarks pooled\n";
      Buffer.add_string buf (Format.asprintf "%a" Vp_util.Histogram.pp pooled);
      Buffer.contents buf
  | `Csv ->
      (* One row per (benchmark, bucket), the pooled distribution last. *)
      let table =
        Vp_util.Table.create
          [
            ("Benchmark", Vp_util.Table.Left);
            ("Bucket", Vp_util.Table.Left);
            ("Percent", Vp_util.Table.Right);
          ]
      in
      List.iter
        (fun (bench, histogram) ->
          List.iter
            (fun (bucket, f) ->
              Vp_util.Table.add_row table
                [ bench; bucket; Printf.sprintf "%.2f" (f *. 100.0) ])
            (Vp_util.Histogram.fractions histogram))
        (histograms @ [ ("pooled", pooled) ]);
      Vp_util.Table.render_csv table

(* --- Comparison with static recovery --- *)

(* The comparison of one benchmark at one configuration: a store-cached
   leaf ordered after the benchmark's summary node, which dedups onto
   [run_all]'s when both sit on one graph. Only the artifacts that print
   the comparison declare it, so no other summary pays for its trace and
   two icache walks. The summary is plain data, so the leaf reads the
   pipeline through the whole-run memo; the dependency makes that a memo
   hit rather than a race with the summary under [--jobs N]. The
   comparison is a pure function of the summary's (model, config), so its
   key is derived from the summary's — a short digest instead of a second
   marshalled model, which keeps re-declaring it (every warm serve
   request does) cheap. *)
let comparison_node g ~config (model : Vp_workload.Spec_model.t) =
  let bench = bench_node g ~config model in
  G.node g
    ~label:("comparison:" ^ model.Vp_workload.Spec_model.name)
    ~key:(Vp_exec.Store.key ("comparison", G.key bench))
    ~deps:[ G.pack bench ]
    (fun () -> comparison_of (Pipeline.run ~config model))

let comparison g ~config models =
  let leaves =
    List.map
      (fun (model : Vp_workload.Spec_model.t) ->
        ( model.Vp_workload.Spec_model.name,
          comparison_node g ~config model ))
      models
  in
  reduce g ~kind:"comparison" ~config ~payload:models (List.map snd leaves)
    (fun () -> List.map (fun (name, n) -> (name, G.value n)) leaves)

let render_comparison ?(format = `Ascii) rows =
  let pct_column name = unit_column format name "%" in
  let pct = pct_cell format in
  let table =
    Vp_util.Table.create
      ~title:
        "Comparison with the static-recovery scheme of [4] (expected over \
         misprediction scenarios)"
      [
        ("Benchmark", Vp_util.Table.Left);
        pct_column "Comp share (ours)";
        pct_column "Comp share ([4])";
        ("Sched ratio (ours)", Vp_util.Table.Right);
        ("Sched ratio ([4])", Vp_util.Table.Right);
        pct_column "Cache share ([4])";
        pct_column "Code growth ([4])";
      ]
  in
  List.iter
    (fun (bench, c) ->
      Vp_util.Table.add_row table
        [
          bench;
          pct c.ours_comp_share;
          pct c.recovery_comp_share;
          cell c.ours_spec_ratio;
          cell c.recovery_spec_ratio;
          pct c.cache_extra_share;
          pct c.code_growth;
        ])
    rows;
  emit ~format table

(* --- Extensions --- *)

type region_row = {
  region_bench : string;
  base_ratio : float;
  region_ratio : float;
  base_speedup : float;
  region_speedup : float;
  formed_traces : int;
  mean_trace_blocks : float;
}

let region_row ~config ~params (model : Vp_workload.Spec_model.t) =
  (* A region holds several blocks' worth of loads, so the per-block
     speculation budget scales with the region size (the base experiments
     keep the paper's per-basic-block budget). *)
  let region_config =
    {
      config with
      Config.cce_retire_width =
        config.Config.cce_retire_width
        * params.Vp_region.Superblock.max_blocks;
      policy =
        {
          config.Config.policy with
          Vp_vspec.Policy.max_predictions =
            config.Config.policy.Vp_vspec.Policy.max_predictions
            * params.Vp_region.Superblock.max_blocks;
          max_sync_bits =
            config.Config.policy.Vp_vspec.Policy.max_sync_bits
            * params.Vp_region.Superblock.max_blocks;
        };
    }
  in
  let workload =
    Vp_workload.Workload.generate ~seed:config.Config.seed model
  in
  let cfg = Vp_workload.Cfg.derive ~seed:config.seed workload in
  (* Formation goes through the region-formation memo: identical points
     share one physical program, which is what makes the downstream
     physically keyed caches hit. *)
  let sb_program, traces = Region_unit.superblock workload cfg params in
  (* [Pipeline.run] passes the memoized profile, so the whole-run memo
     returns the base run [run_all] already finished. *)
  let base = Pipeline.run ~config model in
  let region = Pipeline.run_program ~config:region_config workload sb_program in
  let stats p = Pipeline.stats p in
  let multi =
    List.filter
      (fun (t : Vp_region.Superblock.trace) -> List.length t.blocks >= 2)
      traces
  in
  {
    region_bench = model.Vp_workload.Spec_model.name;
    base_ratio = (Vp_metrics.Summary.table3 (stats base)).best;
    region_ratio = (Vp_metrics.Summary.table3 (stats region)).best;
    base_speedup = Vp_metrics.Summary.expected_speedup (stats base);
    region_speedup = Vp_metrics.Summary.expected_speedup (stats region);
    formed_traces = List.length multi;
    mean_trace_blocks =
      Vp_util.Stats.mean
        (List.map
           (fun (t : Vp_region.Superblock.trace) ->
             float_of_int (List.length t.blocks))
           multi);
  }

let regions g ~config ?(params = Vp_region.Superblock.default_params) models =
  let leaves =
    List.map
      (fun (model : Vp_workload.Spec_model.t) ->
        G.node g
          ~label:("regions:" ^ model.Vp_workload.Spec_model.name)
          ~key:(region_job_key ~config (Superblock_point params) model)
          (fun () -> region_row ~config ~params model))
      models
  in
  reduce g ~kind:"regions" ~config ~payload:(models, params) leaves (fun () ->
      List.map G.value leaves)

let render_regions ?(format = `Ascii) rows =
  let table =
    Vp_util.Table.create
      ~title:
        "Region extension: basic blocks vs superblocks (paper's future \
         work: larger regions should improve further)"
      [
        ("Benchmark", Vp_util.Table.Left);
        ("Sched ratio (bb)", Vp_util.Table.Right);
        ("Sched ratio (sb)", Vp_util.Table.Right);
        unit_column format "Speedup (bb)" "x";
        unit_column format "Speedup (sb)" "x";
        ("Traces", Vp_util.Table.Right);
        ("Mean blocks", Vp_util.Table.Right);
      ]
  in
  List.iter
    (fun r ->
      Vp_util.Table.add_row table
        [
          r.region_bench;
          cell r.base_ratio;
          cell r.region_ratio;
          speedup_cell format r.base_speedup;
          speedup_cell format r.region_speedup;
          string_of_int r.formed_traces;
          Printf.sprintf "%.1f" r.mean_trace_blocks;
        ])
    rows;
  emit ~format table

(* --- Region-parameter frontier --- *)

type frontier_row = {
  frontier_bench : string;
  frontier_max_blocks : int;
  frontier_min_probability : float;
  frontier_width : int;
  frontier_ratio : float;
  frontier_speedup : float;
  frontier_base_speedup : float;
  frontier_traces : int;
  frontier_mean_blocks : float;
}

let default_frontier_max_blocks = [ 2; 4; 8 ]
let default_frontier_min_probabilities = [ 0.50; 0.65; 0.80 ]
let default_frontier_widths = [ 4; 8 ]

(* One leaf per (model, max_blocks, min_probability, width), each
   computing a plain [region_row] at the width-applied config — exactly
   what a [regions] leaf at those params computes, so a frontier point
   that coincides with the plain region table shares its key, node and
   store entry. The sweep's cost is sublinear in shared-prefix points by
   construction: points that differ only in width share one formation
   (the formation key has no width), every point of one benchmark shares
   the base pipeline run per width (whole-run memo on the physically
   shared base program), and every formed program's residual blocks share
   the base run's spec-unit artifacts (keyed on the physical block). *)
let regions_frontier g ~config ?(max_blocks = default_frontier_max_blocks)
    ?(min_probabilities = default_frontier_min_probabilities)
    ?(widths = default_frontier_widths) models =
  let points =
    List.concat_map
      (fun mb ->
        List.concat_map
          (fun mp -> List.map (fun w -> (mb, mp, w)) widths)
          min_probabilities)
      max_blocks
  in
  let leaves =
    List.concat_map
      (fun (model : Vp_workload.Spec_model.t) ->
        List.map
          (fun (mb, mp, w) ->
            let params =
              {
                Vp_region.Superblock.default_params with
                max_blocks = mb;
                min_probability = mp;
              }
            in
            let pconfig = Config.with_width w config in
            let node =
              G.node g
                ~label:
                  (Printf.sprintf "frontier:%s:b%d:p%.2f:w%d"
                     model.Vp_workload.Spec_model.name mb mp w)
                ~key:(region_job_key ~config:pconfig (Superblock_point params) model)
                (fun () -> region_row ~config:pconfig ~params model)
            in
            ((model, mb, mp, w), node))
          points)
      models
  in
  reduce g ~kind:"regions-frontier" ~config
    ~payload:(models, max_blocks, min_probabilities, widths)
    (List.map snd leaves)
    (fun () ->
      List.map
        (fun (((model : Vp_workload.Spec_model.t), mb, mp, w), node) ->
          let (r : region_row) = G.value node in
          {
            frontier_bench = model.Vp_workload.Spec_model.name;
            frontier_max_blocks = mb;
            frontier_min_probability = mp;
            frontier_width = w;
            frontier_ratio = r.region_ratio;
            frontier_speedup = r.region_speedup;
            frontier_base_speedup = r.base_speedup;
            frontier_traces = r.formed_traces;
            frontier_mean_blocks = r.mean_trace_blocks;
          })
        leaves)

let render_regions_frontier ?(format = `Ascii) rows =
  let table =
    Vp_util.Table.create
      ~title:
        "Region-parameter frontier: superblock formation (max blocks x min \
         edge probability) across machine widths"
      [
        ("Benchmark", Vp_util.Table.Left);
        ("Blocks", Vp_util.Table.Right);
        ("Min prob", Vp_util.Table.Right);
        ("Width", Vp_util.Table.Right);
        ("Sched ratio (sb)", Vp_util.Table.Right);
        unit_column format "Speedup (sb)" "x";
        unit_column format "Speedup (bb)" "x";
        ("Traces", Vp_util.Table.Right);
        ("Mean blocks", Vp_util.Table.Right);
      ]
  in
  List.iter
    (fun r ->
      Vp_util.Table.add_row table
        [
          r.frontier_bench;
          string_of_int r.frontier_max_blocks;
          Printf.sprintf "%.2f" r.frontier_min_probability;
          string_of_int r.frontier_width;
          cell r.frontier_ratio;
          speedup_cell format r.frontier_speedup;
          speedup_cell format r.frontier_base_speedup;
          string_of_int r.frontier_traces;
          Printf.sprintf "%.1f" r.frontier_mean_blocks;
        ])
    rows;
  emit ~format table

(* --- Overlap validation (block sequences on one clock) --- *)

type overlap_row = {
  overlap_bench : string;
  sequence_total : int;  (** measured by [Dual_engine.run_sequence] *)
  sum_vliw : int;  (** per-block VLIW-retire accounting summed *)
  sum_drain : int;  (** per-block full-drain accounting summed *)
  sequence_stalls : int;
  sequence_ok : bool;  (** per-instance architectural equivalence held *)
}

let overlap_row ~config ~executions (model : Vp_workload.Spec_model.t) =
  let p = Pipeline.run ~config model in
  let rng = Vp_util.Rng.create config.Config.seed in
  let rng = Vp_util.Rng.split_named rng "overlap" in
  let blocks =
    Vp_util.Rng.sampler
      (Array.map
         (fun (b : Pipeline.block_eval) -> float_of_int b.count)
         p.blocks)
  in
  let descr = Config.machine config in
  (* A block's reference depends only on the block, and a solo run only
     on the block and its outcomes, so each is computed once per row, at
     its first sample. An unspeculated block's plain schedule is the one
     the run scheduled, read back from the spec-unit cache. The RNG draws
     are unchanged. *)
  let once table index f =
    match table.(index) with
    | Some v -> v
    | None ->
        let v = f () in
        table.(index) <- Some v;
        v
  in
  let references = Array.make (Array.length p.blocks) None in
  let solo_runs = Hashtbl.create 64 in
  let items_with_bounds =
    List.init executions (fun _ ->
        let bi = Vp_util.Rng.sample rng blocks in
        let b = p.blocks.(bi) in
        let reference =
          once references bi (fun () -> Pipeline.reference_of_block p bi)
        in
        match b.spec with
        | None ->
            let s =
              Spec_unit.schedule descr (Vp_ir.Program.nth p.program bi).block
            in
            ( Vp_engine.Dual_engine.Plain (s, reference),
              b.original_cycles,
              b.original_cycles )
        | Some spec ->
            let outcomes =
              Vp_engine.Scenario.sample rng ~rates:spec.rates
            in
            let solo =
              match Hashtbl.find_opt solo_runs (bi, outcomes) with
              | Some solo -> solo
              | None ->
                  let solo =
                    Vp_engine.Dual_engine.run ?ccb_capacity:config.ccb_capacity
                      ~cce_retire_width:config.cce_retire_width spec.sb
                      ~reference ~live_in:Vp_engine.Reference.live_in ~outcomes
                  in
                  Hashtbl.add solo_runs (bi, outcomes) solo;
                  solo
            in
            ( Vp_engine.Dual_engine.Speculated
                { sb = spec.sb; reference; outcomes },
              solo.vliw_cycles,
              solo.cycles ))
  in
  let r =
    Vp_engine.Dual_engine.run_sequence ?ccb_capacity:config.ccb_capacity
      ~cce_retire_width:config.cce_retire_width
      ~live_in:Vp_engine.Reference.live_in
      (List.map (fun (i, _, _) -> i) items_with_bounds)
  in
  {
    overlap_bench = model.Vp_workload.Spec_model.name;
    sequence_total = r.total_cycles;
    sum_vliw =
      List.fold_left (fun a (_, v, _) -> a + v) 0 items_with_bounds;
    sum_drain =
      List.fold_left (fun a (_, _, d) -> a + d) 0 items_with_bounds;
    sequence_stalls = r.stall_cycles;
    sequence_ok = r.state_ok;
  }

let overlap_validation g ~config ?(executions = 400) models =
  let leaves =
    List.map
      (fun (model : Vp_workload.Spec_model.t) ->
        G.node g
          ~label:("overlap:" ^ model.Vp_workload.Spec_model.name)
          ~key:(job_key ~kind:"overlap" ~config (model, executions))
          (fun () -> overlap_row ~config ~executions model))
      models
  in
  reduce g ~kind:"overlap" ~config ~payload:(models, executions) leaves
    (fun () -> List.map G.value leaves)

(* Hardware-mode validation: one job per (config, benchmark) point. Each
   job rebuilds its pipeline from the model — deterministic in (config,
   model), and the spec-unit caches make the rebuild cheap when the
   profile-driven sweeps already ran — so the trace results are
   content-addressed and parallelize like every other experiment. *)
let hardware_validation g ~config ?executions models =
  let leaves =
    List.map
      (fun (model : Vp_workload.Spec_model.t) ->
        G.node g
          ~label:("hardware:" ^ model.Vp_workload.Spec_model.name)
          ~key:(job_key ~kind:"hardware" ~config (model, executions))
          (fun () ->
            ( model.Vp_workload.Spec_model.name,
              Trace_sim.run ?executions (Pipeline.run ~config model) )))
      models
  in
  reduce g ~kind:"hardware" ~config
    ~payload:(models, executions) leaves
    (fun () -> List.map G.value leaves)

let render_overlap ?format rows =
  let table =
    Vp_util.Table.create
      ~title:
        "Overlap validation: a shared-clock block sequence vs the two per-block accountings (compensation overlaps following blocks, so the truth should track the VLIW-retire sum)"
      [
        ("Benchmark", Vp_util.Table.Left);
        ("Sequence total", Vp_util.Table.Right);
        ("Sum VLIW-retire", Vp_util.Table.Right);
        ("Sum full-drain", Vp_util.Table.Right);
        ("Stalls", Vp_util.Table.Right);
        ("State", Vp_util.Table.Left);
      ]
  in
  List.iter
    (fun r ->
      Vp_util.Table.add_row table
        [
          r.overlap_bench;
          string_of_int r.sequence_total;
          string_of_int r.sum_vliw;
          string_of_int r.sum_drain;
          string_of_int r.sequence_stalls;
          (if r.sequence_ok then "ok" else "MISMATCH");
        ])
    rows;
  emit ?format table

(* --- Hyperblocks --- *)

type hyperblock_row = {
  hyper_bench : string;
  hyper_base_ratio : float;
  hyper_ratio : float;
  hyper_base_speedup : float;
  hyper_speedup : float;
  hyper_formed : int;
}

let hyperblock_row ~config ~params (model : Vp_workload.Spec_model.t) =
  let workload =
    Vp_workload.Workload.generate ~seed:config.Config.seed model
  in
  let cfg = Vp_workload.Cfg.derive ~seed:config.seed workload in
  let hb_program, formed = Region_unit.hyperblock workload cfg params in
  let base = Pipeline.run ~config model in
  let hyper = Pipeline.run_program ~config workload hb_program in
  {
    hyper_bench = model.Vp_workload.Spec_model.name;
    hyper_base_ratio = (Vp_metrics.Summary.table3 (Pipeline.stats base)).best;
    hyper_ratio = (Vp_metrics.Summary.table3 (Pipeline.stats hyper)).best;
    hyper_base_speedup =
      Vp_metrics.Summary.expected_speedup (Pipeline.stats base);
    hyper_speedup = Vp_metrics.Summary.expected_speedup (Pipeline.stats hyper);
    hyper_formed = formed;
  }

let hyperblocks g ~config ?(params = Vp_region.Hyperblock.default_params)
    models =
  let leaves =
    List.map
      (fun (model : Vp_workload.Spec_model.t) ->
        G.node g
          ~label:("hyperblocks:" ^ model.Vp_workload.Spec_model.name)
          ~key:(region_job_key ~config (Hyperblock_point params) model)
          (fun () -> hyperblock_row ~config ~params model))
      models
  in
  reduce g ~kind:"hyperblocks" ~config ~payload:(models, params) leaves
    (fun () -> List.map G.value leaves)

let render_hyperblocks ?(format = `Ascii) rows =
  let table =
    Vp_util.Table.create
      ~title:
        "Hyperblock extension: if-converted (predicated) regions vs basic \
         blocks; restorable guarded operations participate in speculation \
         (old values preserved in the OVB)"
      [
        ("Benchmark", Vp_util.Table.Left);
        ("Sched ratio (bb)", Vp_util.Table.Right);
        ("Sched ratio (hb)", Vp_util.Table.Right);
        unit_column format "Speedup (bb)" "x";
        unit_column format "Speedup (hb)" "x";
        ("Hyperblocks", Vp_util.Table.Right);
      ]
  in
  List.iter
    (fun r ->
      Vp_util.Table.add_row table
        [
          r.hyper_bench;
          cell r.hyper_base_ratio;
          cell r.hyper_ratio;
          speedup_cell format r.hyper_base_speedup;
          speedup_cell format r.hyper_speedup;
          string_of_int r.hyper_formed;
        ])
    rows;
  emit ~format table

(* --- Seed stability --- *)

type stability_row = {
  stability_bench : string;
  t2_mean : float;
  t2_sd : float;
  t3_mean : float;
  t3_sd : float;
}

let stability g ~config ?(seeds = [ 42; 7; 1234 ]) models =
  (* One leaf per (benchmark, seed); shares its key — and hence its node or
     store entry — with [run_all] whenever a seed coincides with the
     configured one. *)
  let leaves =
    List.map
      (fun model ->
        ( model,
          List.map
            (fun seed ->
              bench_node g ~config:{ config with seed } model)
            seeds ))
      models
  in
  reduce g ~kind:"stability" ~config ~payload:(models, seeds)
    (List.concat_map snd leaves)
    (fun () ->
      List.map
        (fun ((model : Vp_workload.Spec_model.t), nodes) ->
          let per_seed =
            List.map
              (fun n ->
                let (s : benchmark_summary) = G.value n in
                (s.fractions.best, s.ratios.best))
              nodes
          in
          let t2s = List.map fst per_seed and t3s = List.map snd per_seed in
          {
            stability_bench = model.Vp_workload.Spec_model.name;
            t2_mean = Vp_util.Stats.mean t2s;
            t2_sd = Vp_util.Stats.stddev t2s;
            t3_mean = Vp_util.Stats.mean t3s;
            t3_sd = Vp_util.Stats.stddev t3s;
          })
        leaves)

let render_stability ?(format = `Ascii) rows =
  (* An aligned cell reads "mean +/- sd"; CSV gives each number a
     column. *)
  let stat_columns name =
    match format with
    | `Ascii -> [ (name, Vp_util.Table.Right) ]
    | `Csv ->
        [
          (name ^ " (mean)", Vp_util.Table.Right);
          (name ^ " (sd)", Vp_util.Table.Right);
        ]
  in
  let stat_cells mean sd =
    match format with
    | `Ascii -> [ Printf.sprintf "%.2f +/- %.2f" mean sd ]
    | `Csv -> [ cell mean; cell sd ]
  in
  let table =
    Vp_util.Table.create
      ~title:
        "Seed stability: best-case Table 2/3 entries across workload seeds (mean +/- sd)"
      ((("Benchmark", Vp_util.Table.Left) :: stat_columns "Time frac")
      @ stat_columns "Sched ratio")
  in
  List.iter
    (fun r ->
      Vp_util.Table.add_row table
        ((r.stability_bench :: stat_cells r.t2_mean r.t2_sd)
        @ stat_cells r.t3_mean r.t3_sd))
    rows;
  emit ~format table

(* --- Recovery sensitivity --- *)

let recovery_sensitivity g ~config ?(penalties = [ 0; 1; 2; 4; 8 ]) model =
  (* One comparison node per penalty: the point at the configured penalty
     dedups onto the comparison table's leaf when both share a graph. *)
  let leaves =
    List.map
      (fun branch_penalty ->
        comparison_node g ~config:{ config with Config.branch_penalty } model)
      penalties
  in
  reduce g ~kind:"recovery" ~config ~payload:(model, penalties) leaves
    (fun () -> List.map2 (fun p n -> (p, G.value n)) penalties leaves)

let render_recovery_sensitivity ?(format = `Ascii) ~bench rows =
  let table =
    Vp_util.Table.create
      ~title:
        (Printf.sprintf
           "%s: static-recovery scheme vs branch penalty (penalty 0 = the idealized model the paper says [4] assumed)"
           bench)
      [
        ("Branch penalty", Vp_util.Table.Right);
        unit_column format "Comp share (ours)" "%";
        unit_column format "Comp share ([4])" "%";
        ("Sched ratio (ours)", Vp_util.Table.Right);
        ("Sched ratio ([4])", Vp_util.Table.Right);
      ]
  in
  List.iter
    (fun (penalty, c) ->
      Vp_util.Table.add_row table
        [
          string_of_int penalty;
          pct_cell format c.ours_comp_share;
          pct_cell format c.recovery_comp_share;
          cell c.ours_spec_ratio;
          cell c.recovery_spec_ratio;
        ])
    rows;
  emit ~format table

type ablation_point = {
  setting : string;
  t2_best : float;
  t3_best : float;
  t3_worst : float;
  speedup : float;
  speculated : int;
}

(* One leaf per point, each carrying a fully-applied configuration. Wire
   requests describe points as config overrides, which may differ between
   two sweeps that happen to reuse the same labels — so the reducer is
   keyed by the full [(label, config)] point list, and each leaf by its
   applied config. Leaves are store-cached, so two sweeps sharing a point
   share its simulation. *)
let config_sweep g ~config model points =
  let leaves =
    List.map
      (fun (setting, pconfig) ->
        G.node g
          ~label:("sweep:" ^ setting)
          ~key:(job_key ~kind:"config-sweep" ~config:pconfig (model, setting))
          (fun () ->
            let s = run_benchmark ~config:pconfig model in
            {
              setting;
              t2_best = s.fractions.best;
              t3_best = s.ratios.best;
              t3_worst = s.ratios.worst;
              speedup = Vp_metrics.Summary.expected_speedup s.stats;
              speculated = s.speculated_blocks;
            }))
      points
  in
  reduce g ~kind:"config-sweep" ~config ~payload:(model, points) leaves
    (fun () -> List.map G.value leaves)

(* A named ablation is the config sweep of its tweaks applied to [config]. *)
let ablate g ~config model settings =
  config_sweep g ~config model
    (List.map (fun (setting, tweak) -> (setting, tweak config)) settings)

let with_policy f (c : Config.t) = { c with policy = f c.policy }

let threshold_sweep =
  List.map
    (fun t ->
      ( Printf.sprintf "threshold %.2f" t,
        with_policy (fun p -> { p with Vp_vspec.Policy.threshold = t }) ))
    [ 0.50; 0.65; 0.80; 0.95 ]

let prediction_budget_sweep =
  List.map
    (fun n ->
      ( Printf.sprintf "%d prediction(s)" n,
        with_policy (fun p -> { p with Vp_vspec.Policy.max_predictions = n })
      ))
    [ 1; 2; 4; 8 ]

(* Each bounded capacity comes with its matching Synchronization-register
   budget ({!Config.with_ccb_capacity}), or the machine could deadlock. *)
let ccb_capacity_sweep =
  List.map
    (fun cap ->
      ( (match cap with
        | Some n -> Printf.sprintf "CCB %d entries" n
        | None -> "CCB unbounded"),
        Config.with_ccb_capacity cap ))
    [ Some 2; Some 4; Some 8; Some 16; None ]

let sync_width_sweep =
  List.map
    (fun bits ->
      ( Printf.sprintf "%d sync bits" bits,
        with_policy (fun p -> { p with Vp_vspec.Policy.max_sync_bits = bits })
      ))
    [ 4; 8; 16; 32 ]

let predictor_sweep =
  List.map
    (fun (label, kinds) ->
      ( label,
        fun (c : Config.t) -> { c with profile_predictors = Some kinds } ))
    [
      ("last-value only", [ Vp_predict.Predictor.Last_value ]);
      ("stride only", [ Vp_predict.Predictor.Stride ]);
      ("fcm only", [ Vp_predict.Predictor.Fcm { order = 2; table_bits = 12 } ]);
      ( "stride+fcm (paper)",
        [
          Vp_predict.Predictor.Stride;
          Vp_predict.Predictor.Fcm { order = 2; table_bits = 12 };
        ] );
      ( "stride+fcm+dfcm",
        [
          Vp_predict.Predictor.Stride;
          Vp_predict.Predictor.Fcm { order = 2; table_bits = 12 };
          Vp_predict.Predictor.Dfcm { order = 2; table_bits = 12 };
        ] );
    ]

let cce_width_sweep =
  List.map
    (fun w ->
      ( Printf.sprintf "CCE retire width %d" w,
        fun (c : Config.t) -> { c with cce_retire_width = w } ))
    [ 1; 2; 4; 8 ]

let accounting_sweep =
  [
    ( "VLIW-retire (overlap)",
      fun (c : Config.t) -> { c with charge_cce_drain = false } );
    ( "full CCE drain",
      fun (c : Config.t) -> { c with charge_cce_drain = true } );
  ]

type ablation = {
  sweep_name : string;
  sweep_title : string;
  sweep_settings : (string * (Config.t -> Config.t)) list;
}

let ablation_sweeps =
  List.map
    (fun (sweep_name, sweep_title, sweep_settings) ->
      { sweep_name; sweep_title; sweep_settings })
    [
      ("threshold", "Profile threshold", threshold_sweep);
      ("predictions", "Prediction budget", prediction_budget_sweep);
      ("ccb", "CCB capacity", ccb_capacity_sweep);
      ("syncbits", "Synchronization-register width", sync_width_sweep);
      ("ccewidth", "CCE retire width", cce_width_sweep);
      ("predictors", "Profiling predictors", predictor_sweep);
      ("accounting", "Latency accounting", accounting_sweep);
    ]

let render_ablation ?(format = `Ascii) ~title points =
  let table =
    Vp_util.Table.create ~title
      [
        ("Setting", Vp_util.Table.Left);
        ("Time frac (best)", Vp_util.Table.Right);
        ("Sched ratio (best)", Vp_util.Table.Right);
        ("Sched ratio (worst)", Vp_util.Table.Right);
        unit_column format "Speedup" "x";
        ("Blocks speculated", Vp_util.Table.Right);
      ]
  in
  List.iter
    (fun p ->
      Vp_util.Table.add_row table
        [
          p.setting;
          cell p.t2_best;
          cell p.t3_best;
          cell p.t3_worst;
          speedup_cell format p.speedup;
          string_of_int p.speculated;
        ])
    points;
  emit ~format table

(* --- Telemetry --- *)

let telemetry_sections () =
  let module J = Vp_util.Jsonx in
  let memo (s : Spec_unit.stats) =
    [
      ("hits", J.Int s.hits);
      ("misses", J.Int s.misses);
      ("evictions", J.Int s.evictions);
    ]
  in
  [
    ( "spec_unit",
      J.Obj
        (memo (Spec_unit.stats ())
        @ [ ("region_unit", J.Obj (memo (Region_unit.stats ()))) ]) );
    ("spec_eval", Pipeline.telemetry ());
    ("trace_sim", Trace_sim.telemetry ());
  ]
