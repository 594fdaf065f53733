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

   Every experiment entry point below fans its independent simulations out
   through an execution context: worker domains, an optional
   content-addressed result store, telemetry. The default context is
   sequential and storeless, which replays the jobs in submission order in
   the calling domain — bit-identical to the historical [List.map] code. *)

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

(* Suite-graph declaration helpers (see the [Suite] module at the end of
   this file for the public grouping). Each experiment declares leaf
   simulation nodes plus one reducer node that folds the leaf values into
   the experiment's row list. Leaves are store-cached like the old
   [map_exn] jobs and share their keys across experiments — the graph
   dedups a key that is merely in flight, the store one that already
   completed. Reducers pass [~cache:false]: their inputs are already
   cached or deduped, and the fold is cheaper than its own store
   round-trip would be. *)

module G = Vp_exec.Graph

let bench_node g ~group ~config (model : Vp_workload.Spec_model.t) =
  G.node g
    ~label:("bench:" ^ model.Vp_workload.Spec_model.name)
    ~group
    ~key:(job_key ~kind:"benchmark" ~config model)
    (fun _ctx -> run_benchmark ~config model)

let reduce g ~kind ~config ~payload leaves f =
  G.node g ~label:("reduce:" ^ kind) ~group:kind ~cache:false
    ~key:(job_key ~kind:("reduce-" ^ kind) ~config payload)
    ~deps:(List.map G.pack leaves)
    (fun _ctx -> f ())

let suite_run_all g ~config models =
  let leaves = List.map (bench_node g ~group:"run_all" ~config) models in
  reduce g ~kind:"run_all" ~config ~payload:models leaves (fun () ->
      List.map G.value leaves)

(* One graph per classic entry point: declare, then [await] the reducer.
   Sequential contexts drain in declaration order — byte-identical to the
   historical barriered batches — while the suite-level callers ([all],
   the report, the bench) declare several experiments on one shared graph
   before the first await, which is where the barrier-free interleaving
   and in-flight dedup happen. *)
let run_graph exec declare =
  let g = G.create exec in
  G.await g (declare g)

let run_all ?(config = Config.default) ?(exec = Vp_exec.Context.sequential)
    models =
  run_graph exec (fun g -> suite_run_all g ~config models)

let cell = Vp_util.Table.cell_f

let emit ?(format = `Ascii) table =
  match format with
  | `Ascii -> Vp_util.Table.render table
  | `Csv -> Vp_util.Table.render_csv table

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

let suite_table4 g ~config ?(narrow = 4) ?(wide = 8) models =
  (* One leaf per (benchmark, width); a width leaf that matches [run_all]'s
     configuration — the default [narrow] does — dedups onto the same node
     when both experiments sit on one graph, and shares its store entry
     otherwise. *)
  let leaves =
    List.concat_map
      (fun model ->
        List.map
          (fun width ->
            bench_node g ~group:"table4"
              ~config:(Config.with_width width config)
              model)
          [ narrow; wide ])
      models
  in
  reduce g ~kind:"table4" ~config ~payload:(models, narrow, wide) leaves
    (fun () -> pair_table4 models (List.map G.value leaves))

let table4 ?(config = Config.default) ?(exec = Vp_exec.Context.sequential)
    ?narrow ?wide models =
  run_graph exec (fun g -> suite_table4 g ~config ?narrow ?wide models)

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

let render_figure8 summaries =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "Figure 8: distribution of change in schedule lengths due to prediction\n\
     (per executed block, all-correct case; positive = cycles saved)\n\n";
  let pooled =
    Vp_metrics.Summary.figure8
      (Array.concat (List.map (fun s -> s.stats) summaries))
  in
  List.iter
    (fun s ->
      Buffer.add_string buf (name s);
      Buffer.add_char buf '\n';
      Buffer.add_string buf (Format.asprintf "%a" Vp_util.Histogram.pp s.fig8);
      Buffer.add_char buf '\n')
    summaries;
  Buffer.add_string buf "all benchmarks pooled\n";
  Buffer.add_string buf (Format.asprintf "%a" Vp_util.Histogram.pp pooled);
  Buffer.contents buf

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
let comparison_node g ~group ~config (model : Vp_workload.Spec_model.t) =
  let bench = bench_node g ~group ~config model in
  G.node g
    ~label:("comparison:" ^ model.Vp_workload.Spec_model.name)
    ~group
    ~key:(Vp_exec.Store.key ("comparison", G.key bench))
    ~deps:[ G.pack bench ]
    (fun _ctx -> comparison_of (Pipeline.run ~config model))

let suite_comparison g ~config models =
  let leaves =
    List.map
      (fun (model : Vp_workload.Spec_model.t) ->
        ( model.Vp_workload.Spec_model.name,
          comparison_node g ~group:"comparison" ~config model ))
      models
  in
  reduce g ~kind:"comparison" ~config ~payload:models (List.map snd leaves)
    (fun () -> List.map (fun (name, n) -> (name, G.value n)) leaves)

let comparison ?(config = Config.default) ?(exec = Vp_exec.Context.sequential)
    models =
  run_graph exec (fun g -> suite_comparison g ~config models)

let render_comparison ?format rows =

  let table =
    Vp_util.Table.create
      ~title:
        "Comparison with the static-recovery scheme of [4] (expected over \
         misprediction scenarios)"
      [
        ("Benchmark", Vp_util.Table.Left);
        ("Comp share (ours)", Vp_util.Table.Right);
        ("Comp share ([4])", Vp_util.Table.Right);
        ("Sched ratio (ours)", Vp_util.Table.Right);
        ("Sched ratio ([4])", Vp_util.Table.Right);
        ("Cache share ([4])", Vp_util.Table.Right);
        ("Code growth ([4])", Vp_util.Table.Right);
      ]
  in
  List.iter
    (fun (bench, c) ->
      Vp_util.Table.add_row table
        [
          bench;
          Vp_util.Table.cell_pct c.ours_comp_share;
          Vp_util.Table.cell_pct c.recovery_comp_share;
          cell c.ours_spec_ratio;
          cell c.recovery_spec_ratio;
          Vp_util.Table.cell_pct c.cache_extra_share;
          Vp_util.Table.cell_pct c.code_growth;
        ])
    rows;
  emit ?format table

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

let region_row ?store ~config ~params (model : Vp_workload.Spec_model.t) =
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
     share one physical program (which is what makes the downstream
     physically-keyed caches hit), and a store-backed run shares the
     formation across processes too. *)
  let sb_program, traces =
    Region_unit.superblock ?store ~seed:config.seed workload cfg params
  in
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

let suite_regions g ~config ?(params = Vp_region.Superblock.default_params)
    models =
  let store = (G.context g).Vp_exec.Context.store in
  let leaves =
    List.map
      (fun (model : Vp_workload.Spec_model.t) ->
        G.node g
          ~label:("regions:" ^ model.Vp_workload.Spec_model.name)
          ~group:"regions"
          ~key:(region_job_key ~config (Superblock_point params) model)
          (fun _ctx -> region_row ?store ~config ~params model))
      models
  in
  reduce g ~kind:"regions" ~config ~payload:(models, params) leaves (fun () ->
      List.map G.value leaves)

let regions ?(config = Config.default) ?(exec = Vp_exec.Context.sequential)
    ?params models =
  run_graph exec (fun g -> suite_regions g ~config ?params models)

let render_regions ?format rows =
  let table =
    Vp_util.Table.create
      ~title:
        "Region extension: basic blocks vs superblocks (paper's future \
         work: larger regions should improve further)"
      [
        ("Benchmark", Vp_util.Table.Left);
        ("Sched ratio (bb)", Vp_util.Table.Right);
        ("Sched ratio (sb)", Vp_util.Table.Right);
        ("Speedup (bb)", Vp_util.Table.Right);
        ("Speedup (sb)", Vp_util.Table.Right);
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
          Printf.sprintf "%.3fx" r.base_speedup;
          Printf.sprintf "%.3fx" r.region_speedup;
          string_of_int r.formed_traces;
          Printf.sprintf "%.1f" r.mean_trace_blocks;
        ])
    rows;
  emit ?format table

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
   construction: every point of one benchmark shares the formation memo's
   trace selection (stitch-free key), the base pipeline run per width
   (whole-run memo on the physically shared base program), and the
   spec-unit artifacts of any point that forms the same program. *)
let suite_regions_frontier g ~config
    ?(max_blocks = default_frontier_max_blocks)
    ?(min_probabilities = default_frontier_min_probabilities)
    ?(widths = default_frontier_widths) models =
  let store = (G.context g).Vp_exec.Context.store in
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
                ~group:"frontier"
                ~key:(region_job_key ~config:pconfig (Superblock_point params) model)
                (fun _ctx -> region_row ?store ~config:pconfig ~params model)
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

let regions_frontier ?(config = Config.default)
    ?(exec = Vp_exec.Context.sequential) ?max_blocks ?min_probabilities
    ?widths models =
  run_graph exec (fun g ->
      suite_regions_frontier g ~config ?max_blocks ?min_probabilities ?widths
        models)

let render_regions_frontier ?format rows =
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
        ("Speedup (sb)", Vp_util.Table.Right);
        ("Speedup (bb)", Vp_util.Table.Right);
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
          Printf.sprintf "%.3fx" r.frontier_speedup;
          Printf.sprintf "%.3fx" r.frontier_base_speedup;
          string_of_int r.frontier_traces;
          Printf.sprintf "%.1f" r.frontier_mean_blocks;
        ])
    rows;
  emit ?format table

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
  (* A block's reference and plain schedule depend only on the block, and
     a solo run only on the block and its outcomes, so each is computed
     once per row, at its first sample. The RNG draws are unchanged. *)
  let once table index f =
    match table.(index) with
    | Some v -> v
    | None ->
        let v = f () in
        table.(index) <- Some v;
        v
  in
  let references = Array.make (Array.length p.blocks) None in
  let plain_schedules = Array.make (Array.length p.blocks) None in
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
              once plain_schedules bi (fun () ->
                  Vp_sched.List_scheduler.schedule_block descr
                    (Vp_ir.Program.nth p.program bi).block)
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
                    Vp_engine.Dual_engine.run
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
    Vp_engine.Dual_engine.run_sequence
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

let suite_overlap_validation g ~config ?(executions = 400) models =
  let leaves =
    List.map
      (fun (model : Vp_workload.Spec_model.t) ->
        G.node g
          ~label:("overlap:" ^ model.Vp_workload.Spec_model.name)
          ~group:"overlap"
          ~key:(job_key ~kind:"overlap" ~config (model, executions))
          (fun _ctx -> overlap_row ~config ~executions model))
      models
  in
  reduce g ~kind:"overlap" ~config ~payload:(models, executions) leaves
    (fun () -> List.map G.value leaves)

let overlap_validation ?(config = Config.default)
    ?(exec = Vp_exec.Context.sequential) ?executions models =
  run_graph exec (fun g -> suite_overlap_validation g ~config ?executions models)

(* Hardware-mode validation: one job per (config, benchmark) point. Each
   job rebuilds its pipeline from the model — deterministic in (config,
   model), and the spec-unit caches make the rebuild cheap when the
   profile-driven sweeps already ran — so the trace results are
   content-addressed and parallelize like every other experiment. *)
let suite_hardware_validation g ~config ?executions models =
  let leaves =
    List.map
      (fun (model : Vp_workload.Spec_model.t) ->
        G.node g
          ~label:("hardware:" ^ model.Vp_workload.Spec_model.name)
          ~group:"hardware"
          ~key:(job_key ~kind:"hardware" ~config (model, executions))
          (fun _ctx ->
            ( model.Vp_workload.Spec_model.name,
              Trace_sim.run ?executions (Pipeline.run ~config model) )))
      models
  in
  reduce g ~kind:"hardware" ~config
    ~payload:(models, executions) leaves
    (fun () -> List.map G.value leaves)

let hardware_validation ?(config = Config.default)
    ?(exec = Vp_exec.Context.sequential) ?executions models =
  run_graph exec (fun g ->
      suite_hardware_validation g ~config ?executions models)

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

let hyperblock_row ?store ~config ~params (model : Vp_workload.Spec_model.t) =
  let workload =
    Vp_workload.Workload.generate ~seed:config.Config.seed model
  in
  let cfg = Vp_workload.Cfg.derive ~seed:config.seed workload in
  let hb_program, formed = Region_unit.hyperblock ?store workload cfg params in
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

let suite_hyperblocks g ~config
    ?(params = Vp_region.Hyperblock.default_params) models =
  let store = (G.context g).Vp_exec.Context.store in
  let leaves =
    List.map
      (fun (model : Vp_workload.Spec_model.t) ->
        G.node g
          ~label:("hyperblocks:" ^ model.Vp_workload.Spec_model.name)
          ~group:"hyperblocks"
          ~key:(region_job_key ~config (Hyperblock_point params) model)
          (fun _ctx -> hyperblock_row ?store ~config ~params model))
      models
  in
  reduce g ~kind:"hyperblocks" ~config ~payload:(models, params) leaves
    (fun () -> List.map G.value leaves)

let hyperblocks ?(config = Config.default)
    ?(exec = Vp_exec.Context.sequential) ?params models =
  run_graph exec (fun g -> suite_hyperblocks g ~config ?params models)

let render_hyperblocks ?format rows =
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
        ("Speedup (bb)", Vp_util.Table.Right);
        ("Speedup (hb)", Vp_util.Table.Right);
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
          Printf.sprintf "%.3fx" r.hyper_base_speedup;
          Printf.sprintf "%.3fx" r.hyper_speedup;
          string_of_int r.hyper_formed;
        ])
    rows;
  emit ?format table

(* --- Seed stability --- *)

type stability_row = {
  stability_bench : string;
  t2_mean : float;
  t2_sd : float;
  t3_mean : float;
  t3_sd : float;
}

let suite_stability g ~config ?(seeds = [ 42; 7; 1234 ]) models =
  (* One leaf per (benchmark, seed); shares its key — and hence its node or
     store entry — with [run_all] whenever a seed coincides with the
     configured one. *)
  let leaves =
    List.map
      (fun model ->
        ( model,
          List.map
            (fun seed ->
              bench_node g ~group:"stability" ~config:{ config with seed }
                model)
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

let stability ?(config = Config.default)
    ?(exec = Vp_exec.Context.sequential) ?seeds models =
  run_graph exec (fun g -> suite_stability g ~config ?seeds models)

let render_stability ?format rows =
  let table =
    Vp_util.Table.create
      ~title:
        "Seed stability: best-case Table 2/3 entries across workload seeds (mean +/- sd)"
      [
        ("Benchmark", Vp_util.Table.Left);
        ("Time frac", Vp_util.Table.Right);
        ("Sched ratio", Vp_util.Table.Right);
      ]
  in
  List.iter
    (fun r ->
      Vp_util.Table.add_row table
        [
          r.stability_bench;
          Printf.sprintf "%.2f +/- %.2f" r.t2_mean r.t2_sd;
          Printf.sprintf "%.2f +/- %.2f" r.t3_mean r.t3_sd;
        ])
    rows;
  emit ?format table

(* --- Recovery sensitivity --- *)

let suite_recovery_sensitivity g ~config ?(penalties = [ 0; 1; 2; 4; 8 ])
    model =
  (* One comparison node per penalty: the point at the configured penalty
     dedups onto the comparison table's leaf when both share a graph. *)
  let leaves =
    List.map
      (fun branch_penalty ->
        comparison_node g ~group:"recovery"
          ~config:{ config with Config.branch_penalty }
          model)
      penalties
  in
  reduce g ~kind:"recovery" ~config ~payload:(model, penalties) leaves
    (fun () -> List.map2 (fun p n -> (p, G.value n)) penalties leaves)

let recovery_sensitivity ?(config = Config.default)
    ?(exec = Vp_exec.Context.sequential) ?penalties model =
  run_graph exec (fun g ->
      suite_recovery_sensitivity g ~config ?penalties model)

let render_recovery_sensitivity ?format ~bench rows =
  let table =
    Vp_util.Table.create
      ~title:
        (Printf.sprintf
           "%s: static-recovery scheme vs branch penalty (penalty 0 = the idealized model the paper says [4] assumed)"
           bench)
      [
        ("Branch penalty", Vp_util.Table.Right);
        ("Comp share (ours)", Vp_util.Table.Right);
        ("Comp share ([4])", Vp_util.Table.Right);
        ("Sched ratio (ours)", Vp_util.Table.Right);
        ("Sched ratio ([4])", Vp_util.Table.Right);
      ]
  in
  List.iter
    (fun (penalty, c) ->
      Vp_util.Table.add_row table
        [
          string_of_int penalty;
          Vp_util.Table.cell_pct c.ours_comp_share;
          Vp_util.Table.cell_pct c.recovery_comp_share;
          cell c.ours_spec_ratio;
          cell c.recovery_spec_ratio;
        ])
    rows;
  emit ?format table

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
let suite_config_sweep g ~config model points =
  let leaves =
    List.map
      (fun (setting, pconfig) ->
        G.node g
          ~label:("sweep:" ^ setting)
          ~group:"sweep"
          ~key:(job_key ~kind:"config-sweep" ~config:pconfig (model, setting))
          (fun _ctx ->
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
let suite_ablate g ~config model settings =
  suite_config_sweep g ~config model
    (List.map (fun (setting, tweak) -> (setting, tweak config)) settings)

let ablate ?(config = Config.default) ?(exec = Vp_exec.Context.sequential)
    model settings =
  run_graph exec (fun g -> suite_ablate g ~config model settings)

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

(* A bounded CCB is a hardware/compiler co-design: the compiler must keep a
   block's speculation set within the buffer, or the machine can deadlock
   (speculative operations cannot enter a full CCB whose head waits for a
   check that has not issued yet). The sweep therefore pairs each capacity
   with a matching Synchronization-register budget, which caps the
   speculation set. *)
let ccb_capacity_sweep =
  List.map
    (fun cap ->
      match cap with
      | Some n ->
          ( Printf.sprintf "CCB %d entries" n,
            fun (c : Config.t) ->
              (* budget = capacity + 1 guarantees a block's speculation set
                 fits the buffer whatever its prediction count: the set is
                 at most max_sync_bits - predictions <= capacity *)
              {
                c with
                ccb_capacity = Some n;
                policy =
                  { c.policy with Vp_vspec.Policy.max_sync_bits = n + 1 };
              } )
      | None ->
          ("CCB unbounded", fun (c : Config.t) -> { c with ccb_capacity = None }))
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

let ablation_sweeps =
  [
    ("threshold", threshold_sweep);
    ("predictions", prediction_budget_sweep);
    ("ccb", ccb_capacity_sweep);
    ("syncbits", sync_width_sweep);
    ("ccewidth", cce_width_sweep);
    ("predictors", predictor_sweep);
    ("accounting", accounting_sweep);
  ]

let render_ablation ?format ~title points =
  let table =
    Vp_util.Table.create ~title
      [
        ("Setting", Vp_util.Table.Left);
        ("Time frac (best)", Vp_util.Table.Right);
        ("Sched ratio (best)", Vp_util.Table.Right);
        ("Sched ratio (worst)", Vp_util.Table.Right);
        ("Speedup", Vp_util.Table.Right);
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
          Printf.sprintf "%.3fx" p.speedup;
          string_of_int p.speculated;
        ])
    points;
  emit ?format table

(* --- Telemetry --- *)

let telemetry_sections () =
  let fields (s : Spec_unit.stats) =
    Printf.sprintf {|"hits": %d, "misses": %d, "evictions": %d|} s.hits
      s.misses s.evictions
  in
  [
    ( "spec_unit",
      Printf.sprintf {|{%s, "region_unit": {%s}}|}
        (fields (Spec_unit.stats ()))
        (fields (Region_unit.stats ())) );
    ("spec_eval", Pipeline.telemetry_json ());
    ("trace_sim", Trace_sim.telemetry_json ());
  ]

(* --- Suite declarations --- *)

(* The graph-declaration forms of the entry points above: each declares its
   leaves and reducer on a caller-supplied graph and returns the reducer
   node without draining, so a suite driver ([vliw_vp all], the report, the
   benchmarks) can declare several experiments up front and let one
   scheduler run them barrier-free, deduplicating keys that are merely in
   flight. [Vp_exec.Graph.await] (or [drain]) then runs everything. *)
module Suite = struct
  let run_all = suite_run_all
  let table4 = suite_table4
  let comparison = suite_comparison
  let regions = suite_regions
  let regions_frontier = suite_regions_frontier
  let overlap_validation = suite_overlap_validation
  let hardware_validation = suite_hardware_validation
  let hyperblocks = suite_hyperblocks
  let stability = suite_stability
  let recovery_sensitivity = suite_recovery_sensitivity
  let ablate = suite_ablate
  let config_sweep = suite_config_sweep
end
