(** One entry point per paper artifact (see DESIGN.md's experiment index).

    [run_benchmark] executes the full pipeline for one benchmark and
    reduces it to everything Tables 2–4 and Figure 8 need: a
    {!benchmark_summary} is plain data that keeps none of the pipeline it
    came from. {!comparison_of} computes the recovery-scheme comparison
    from a pipeline, for the artifacts that print it. The [render_*]
    functions lay the results out in the paper's table formats. *)

(** The Section 3 comparison of the dual-engine scheme against the
    static-recovery scheme of paper-reference [4]. *)
type comparison = {
  ours_comp_share : float;
      (** fraction of the dual-engine scheme's execution time that is
          serialized compensation exposure (VLIW stall cycles) — the paper
          reports this as "negligible" *)
  recovery_comp_share : float;
      (** fraction of the static scheme's execution time spent in
          compensation blocks, branch penalties and the extra instruction
          cache misses its code growth causes *)
  ours_spec_ratio : float;
      (** expected effective/original schedule-length ratio over speculated
          blocks, dual-engine scheme *)
  recovery_spec_ratio : float;  (** same ratio under the static scheme *)
  cache_extra_share : float;
      (** the instruction-cache-pollution component of
          [recovery_comp_share] *)
  code_growth : float;
      (** static code growth of the recovery scheme (compensation bytes
          over main-code bytes) *)
}

(** What the paper's per-benchmark artifacts print, and nothing more: plain
    data, so a warm run reads back a few kilobytes per benchmark rather
    than the whole pipeline (workload, program, profile and every
    evaluated block). *)
type benchmark_summary = {
  bench : string;  (** benchmark name *)
  stats : Vp_metrics.Summary.block_stats array;
  fractions : Vp_metrics.Summary.time_fractions;  (** Table 2 row *)
  ratios : Vp_metrics.Summary.length_ratios;  (** Table 3 row *)
  fig8 : Vp_util.Histogram.t;  (** Figure 8 contribution *)
  mean_rate : float;  (** mean profiled prediction rate *)
  speculated_blocks : int;
  total_blocks : int;
}

val name : benchmark_summary -> string

val summarize : Pipeline.t -> benchmark_summary

val run_benchmark :
  ?config:Config.t -> Vp_workload.Spec_model.t -> benchmark_summary

val comparison_of : Pipeline.t -> comparison
(** The Section 3 comparison for one benchmark's pipeline. Its cache
    component replays a [trace_length]-long dynamic trace through two
    icache layouts, so only the artifacts that print the comparison
    compute it — through {!comparison} or {!Suite.comparison}, which the
    graph dedups in flight and the store caches across runs. Those leaves
    read the pipeline through {!Pipeline.run}'s whole-run memo, which the
    benchmark's summary job has already filled. *)

val run_all :
  ?config:Config.t ->
  ?exec:Vp_exec.Context.t ->
  Vp_workload.Spec_model.t list ->
  benchmark_summary list
(** Every [?exec]-taking entry point declares its independent simulations
    as keyed nodes of a {!Vp_exec.Graph} — leaf jobs plus one reducer that
    folds them into the result rows — and drains it: worker domains run
    the leaves concurrently, the context's result store skips
    recomputation of anything already cached, and the context's progress
    sink accumulates telemetry. The default context is sequential,
    storeless and silent, and drains in declaration order — bit-identical
    to the historical in-process evaluation. A failed job raises
    {!Vp_exec.Context.Job_failed}. Suite drivers that want
    several experiments on one barrier-free graph declare them through
    {!Suite} instead. *)

val render_table2 :
  ?format:[ `Ascii | `Csv ] -> benchmark_summary list -> string
(** "Table 2: fraction of execution time used by speculated blocks".
    All [render_*] functions take [?format] — [`Ascii] (default) for the
    aligned report layout, [`Csv] for plotting pipelines. *)

val render_table3 :
  ?format:[ `Ascii | `Csv ] -> benchmark_summary list -> string
(** "Table 3: effective schedule lengths as a fraction of the original". *)

type table4_row = {
  bench : string;
  narrow_fraction : float;  (** Table 2 best-case column, narrow machine *)
  narrow_ratio : float;  (** Table 3 best-case column, narrow machine *)
  wide_fraction : float;
  wide_ratio : float;
}

val table4 :
  ?config:Config.t ->
  ?exec:Vp_exec.Context.t ->
  ?narrow:int ->
  ?wide:int ->
  Vp_workload.Spec_model.t list ->
  table4_row list
(** Best-case entries of Tables 2 and 3 at two issue widths (defaults 4
    and 8), the paper's Table 4. *)

val render_table4 : ?format:[ `Ascii | `Csv ] -> table4_row list -> string

val render_figure8 :
  ?format:[ `Ascii | `Csv ] -> benchmark_summary list -> string
(** Per-benchmark and pooled distribution of schedule-length change: an
    aligned bar chart per benchmark, or in CSV one
    [Benchmark,Bucket,Percent] row per bucket of each benchmark and then
    of the pooled distribution (benchmark [pooled]). *)

val comparison :
  ?config:Config.t ->
  ?exec:Vp_exec.Context.t ->
  Vp_workload.Spec_model.t list ->
  (string * comparison) list
(** One [(benchmark name, comparison)] row per model: a {!comparison_of}
    leaf per benchmark, ordered after that benchmark's {!run_all} job so
    that its {!Pipeline.run} is a whole-run memo hit. *)

val render_comparison :
  ?format:[ `Ascii | `Csv ] -> (string * comparison) list -> string
(** The static-recovery comparison table. *)

(** {1 Extensions beyond the paper's evaluation} *)

(** The superblock (region) experiment — the paper's future-work claim that
    "for larger regions such as hyperblocks and superblocks, we expect to
    see a further improvement". Rows compare the same benchmark scheduled
    and speculated at basic-block granularity versus after superblock
    formation ([Vp_region.Superblock]). *)
type region_row = {
  region_bench : string;
  base_ratio : float;  (** Table-3 best-case ratio, basic blocks *)
  region_ratio : float;  (** same after superblock formation *)
  base_speedup : float;  (** whole-program expected speedup, basic blocks *)
  region_speedup : float;  (** same after superblock formation *)
  formed_traces : int;  (** multi-block superblocks formed *)
  mean_trace_blocks : float;  (** mean trace length over those *)
}

val regions :
  ?config:Config.t ->
  ?exec:Vp_exec.Context.t ->
  ?params:Vp_region.Superblock.params ->
  Vp_workload.Spec_model.t list ->
  region_row list

val render_regions : ?format:[ `Ascii | `Csv ] -> region_row list -> string

(** One point of the region-parameter frontier sweep: the superblock
    experiment's headline columns at one
    [(max_blocks, min_probability, machine width)] grid point. *)
type frontier_row = {
  frontier_bench : string;
  frontier_max_blocks : int;  (** trace length cap of this point *)
  frontier_min_probability : float;  (** edge-probability threshold *)
  frontier_width : int;  (** machine issue width *)
  frontier_ratio : float;  (** Table-3 best-case ratio, superblocks *)
  frontier_speedup : float;  (** expected speedup, superblocks *)
  frontier_base_speedup : float;  (** same at basic-block granularity *)
  frontier_traces : int;  (** multi-block superblocks formed *)
  frontier_mean_blocks : float;  (** mean trace length over those *)
}

val regions_frontier :
  ?config:Config.t ->
  ?exec:Vp_exec.Context.t ->
  ?max_blocks:int list ->
  ?min_probabilities:float list ->
  ?widths:int list ->
  Vp_workload.Spec_model.t list ->
  frontier_row list
(** The region fast lane's sweep: superblock formation across
    [max_blocks] (default [2;4;8]) × [min_probabilities] (default
    [0.50;0.65;0.80]) × machine [widths] (default [4;8]), one graph leaf
    per (benchmark, grid point). Each leaf is a plain {!region_row}
    evaluation at the width-applied config, keyed exactly like a
    {!regions} leaf — coinciding points share nodes and store entries —
    and the per-benchmark work beyond the first point is sublinear:
    points that differ only in width share one formation, every point
    shares the base pipeline run per width (whole-run memo), and each
    formed program's residual blocks share the base run's spec-unit
    artifacts. *)

val render_regions_frontier :
  ?format:[ `Ascii | `Csv ] -> frontier_row list -> string

(** The overlap-validation experiment: a dynamic sequence of blocks on one
    shared clock ({!Vp_engine.Dual_engine.run_sequence}), compared against
    the two per-block accountings it must fall between, which come from
    {!Vp_engine.Dual_engine.run} on each block alone — the same rules, fed
    one block at a time. Justifies the default VLIW-retire charge
    empirically. *)
type overlap_row = {
  overlap_bench : string;
  sequence_total : int;
  sum_vliw : int;
  sum_drain : int;
  sequence_stalls : int;
  sequence_ok : bool;
}

val overlap_validation :
  ?config:Config.t ->
  ?exec:Vp_exec.Context.t ->
  ?executions:int ->
  Vp_workload.Spec_model.t list ->
  overlap_row list
(** Default 400 dynamic block executions per benchmark. *)

val render_overlap : ?format:[ `Ascii | `Csv ] -> overlap_row list -> string

val hardware_validation :
  ?config:Config.t ->
  ?exec:Vp_exec.Context.t ->
  ?executions:int ->
  Vp_workload.Spec_model.t list ->
  (string * Trace_sim.result) list
(** The hardware-mode validation sweep ({!Trace_sim.run} over a fresh
    pipeline per benchmark), fanned through the execution context one
    (config, benchmark) point per job — parallel and, with a store,
    cached like the other experiment sweeps. [executions] defaults to
    {!Trace_sim.run}'s. Render with {!Trace_sim.render}. *)

(** The hyperblock (if-conversion) extension: biased branches absorbed into
    predicated regions. Guarded operations cannot be value-speculated (a
    predicated-off speculative write could not be recovered), so the
    hyperblock benefit here is scheduling overlap: side-path operations
    fill slots under the main path's load latencies and checks. *)
type hyperblock_row = {
  hyper_bench : string;
  hyper_base_ratio : float;
  hyper_ratio : float;
  hyper_base_speedup : float;
  hyper_speedup : float;
  hyper_formed : int;
}

val hyperblocks :
  ?config:Config.t ->
  ?exec:Vp_exec.Context.t ->
  ?params:Vp_region.Hyperblock.params ->
  Vp_workload.Spec_model.t list ->
  hyperblock_row list

val render_hyperblocks :
  ?format:[ `Ascii | `Csv ] -> hyperblock_row list -> string

(** Seed stability: the headline best-case entries across several workload
    seeds. The synthetic benchmarks concentrate time in few hot blocks, so
    a single seed could in principle carry the tables; this experiment
    shows the spread. *)
type stability_row = {
  stability_bench : string;
  t2_mean : float;
  t2_sd : float;
  t3_mean : float;
  t3_sd : float;
}

val stability :
  ?config:Config.t ->
  ?exec:Vp_exec.Context.t ->
  ?seeds:int list ->
  Vp_workload.Spec_model.t list ->
  stability_row list
(** Default seeds: 42 (the reported one), 7, 1234. *)

val render_stability : ?format:[ `Ascii | `Csv ] -> stability_row list -> string

val recovery_sensitivity :
  ?config:Config.t ->
  ?exec:Vp_exec.Context.t ->
  ?penalties:int list ->
  Vp_workload.Spec_model.t ->
  (int * comparison) list
(** The static-recovery comparison re-run across branch penalties, one
    {!comparison} leaf per penalty (the configured penalty's point is the
    comparison table's own leaf). Penalty
    0 approximates the idealized model the paper attributes to [4] ("the
    effects of branch penalties and cache misses are ignored in [4]") —
    even there the dual-engine scheme keeps its lead, because recovery is
    still serialized. Defaults: penalties 0, 1, 2, 4, 8. *)

val render_recovery_sensitivity :
  ?format:[ `Ascii | `Csv ] ->
  bench:string ->
  (int * comparison) list ->
  string

(** One point of an ablation sweep: the headline metrics at one setting. *)
type ablation_point = {
  setting : string;
  t2_best : float;
  t3_best : float;
  t3_worst : float;
  speedup : float;  (** whole-program expected speedup over no prediction *)
  speculated : int;  (** blocks speculated *)
}

val ablate :
  ?config:Config.t ->
  ?exec:Vp_exec.Context.t ->
  Vp_workload.Spec_model.t ->
  (string * (Config.t -> Config.t)) list ->
  ablation_point list
(** Evaluate the benchmark once per labelled configuration tweak. *)

val threshold_sweep : (string * (Config.t -> Config.t)) list
(** Profile thresholds 0.50–0.95 (the paper fixes 0.65 and notes it was
    "kept at a fairly low percentage ... to analyze the mispredictions
    cases as well"). *)

val prediction_budget_sweep : (string * (Config.t -> Config.t)) list
(** Max predictions per block 1, 2, 4, 8. *)

val ccb_capacity_sweep : (string * (Config.t -> Config.t)) list
(** Compensation Code Buffer sizes 2, 4, 8, 16 and unbounded. *)

val sync_width_sweep : (string * (Config.t -> Config.t)) list
(** Synchronization-register widths 4, 8, 16, 32 bits. *)

val predictor_sweep : (string * (Config.t -> Config.t)) list
(** Profiling-predictor sets: last-value / stride / FCM alone, the paper's
    stride+FCM pair, and the pair plus DFCM — justifying the paper's
    Section-3 profiling choice. *)

val cce_width_sweep : (string * (Config.t -> Config.t)) list
(** CCE retirements per cycle 1, 2, 4, 8 (1 is the paper's engine). *)

val accounting_sweep : (string * (Config.t -> Config.t)) list
(** VLIW-retire vs full-CCE-drain block accounting (see
    {!Config.t.charge_cce_drain}). *)

(** A named ablation sweep. *)
type ablation = {
  sweep_name : string;
      (** the name [vliw_vp ablate --sweep] takes, and the [NAME] of its
          [ablate:NAME] artifact *)
  sweep_title : string;  (** its heading in the report *)
  sweep_settings : (string * (Config.t -> Config.t)) list;
}

val ablation_sweeps : ablation list
(** The seven sweeps above: threshold, predictions, ccb, syncbits,
    ccewidth, predictors, accounting. {!Artifact} makes one artifact of
    each. *)

val render_ablation :
  ?format:[ `Ascii | `Csv ] -> title:string -> ablation_point list -> string

val telemetry_sections : unit -> (string * string) list
(** The compute layers' sections of the [--telemetry] summary, as
    [(name, json)] pairs for [Vp_exec.Cli.emit_telemetry ~extra]:
    [spec_unit] (the {!Spec_unit} counters, with the {!Region_unit}
    formation memo's nested as [region_unit]), [spec_eval]
    ({!Pipeline.telemetry_json}) and [trace_sim]
    ({!Trace_sim.telemetry_json}). *)

(** {1 Suite declarations}

    The graph-declaration forms of the entry points above. Each declares
    its leaf simulations and one reducer on a caller-supplied
    {!Vp_exec.Graph} and returns the reducer node {e without draining}, so
    a suite driver ([vliw_vp all], the report generator, the benchmark
    harness) can declare every experiment it needs up front and let one
    scheduler run the union barrier-free: leaves from different
    experiments interleave freely, and a key that two experiments share —
    e.g. [run_all]'s benchmark jobs and [table4]'s narrow-width jobs under
    the same configuration — runs once, deduplicated while merely in
    flight (the store only catches keys that already {e completed}).
    [Vp_exec.Graph.await] on any returned node (or [drain]) runs the whole
    graph; results then come from [await]/[value]. *)
module Suite : sig
  val run_all :
    Vp_exec.Graph.t ->
    config:Config.t ->
    Vp_workload.Spec_model.t list ->
    benchmark_summary list Vp_exec.Graph.node

  val comparison :
    Vp_exec.Graph.t ->
    config:Config.t ->
    Vp_workload.Spec_model.t list ->
    (string * comparison) list Vp_exec.Graph.node

  val table4 :
    Vp_exec.Graph.t ->
    config:Config.t ->
    ?narrow:int ->
    ?wide:int ->
    Vp_workload.Spec_model.t list ->
    table4_row list Vp_exec.Graph.node

  val regions :
    Vp_exec.Graph.t ->
    config:Config.t ->
    ?params:Vp_region.Superblock.params ->
    Vp_workload.Spec_model.t list ->
    region_row list Vp_exec.Graph.node

  val regions_frontier :
    Vp_exec.Graph.t ->
    config:Config.t ->
    ?max_blocks:int list ->
    ?min_probabilities:float list ->
    ?widths:int list ->
    Vp_workload.Spec_model.t list ->
    frontier_row list Vp_exec.Graph.node

  val overlap_validation :
    Vp_exec.Graph.t ->
    config:Config.t ->
    ?executions:int ->
    Vp_workload.Spec_model.t list ->
    overlap_row list Vp_exec.Graph.node

  val hardware_validation :
    Vp_exec.Graph.t ->
    config:Config.t ->
    ?executions:int ->
    Vp_workload.Spec_model.t list ->
    (string * Trace_sim.result) list Vp_exec.Graph.node

  val hyperblocks :
    Vp_exec.Graph.t ->
    config:Config.t ->
    ?params:Vp_region.Hyperblock.params ->
    Vp_workload.Spec_model.t list ->
    hyperblock_row list Vp_exec.Graph.node

  val stability :
    Vp_exec.Graph.t ->
    config:Config.t ->
    ?seeds:int list ->
    Vp_workload.Spec_model.t list ->
    stability_row list Vp_exec.Graph.node

  val recovery_sensitivity :
    Vp_exec.Graph.t ->
    config:Config.t ->
    ?penalties:int list ->
    Vp_workload.Spec_model.t ->
    (int * comparison) list Vp_exec.Graph.node

  val ablate :
    Vp_exec.Graph.t ->
    config:Config.t ->
    Vp_workload.Spec_model.t ->
    (string * (Config.t -> Config.t)) list ->
    ablation_point list Vp_exec.Graph.node
  (** {!config_sweep} over each tweak applied to [config]: a named
      ablation declares the same leaves and reducer as a custom sweep of
      the same points, so the two share nodes and store entries. *)

  val config_sweep :
    Vp_exec.Graph.t ->
    config:Config.t ->
    Vp_workload.Spec_model.t ->
    (string * Config.t) list ->
    ablation_point list Vp_exec.Graph.node
  (** Like {!ablate}, but each point is a fully-applied configuration
      rather than a tweak of the base one — the serve daemon's
      custom-sweep entry. Point labels need only be unique within one
      sweep: leaves and the reducer are keyed by the applied configs, so
      two sweeps reusing a label never collide, while sweeps sharing a
      point share its (store-cached) simulation. *)
end
