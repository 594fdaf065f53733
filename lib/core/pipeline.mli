(** The end-to-end experiment pipeline.

    For one benchmark model, [run]:

    + generates the synthetic program ([Vp_workload]);
    + value-profiles every load with stride and FCM predictors
      ([Vp_profile]);
    + applies the value-speculation transform to every block
      ([Vp_vspec]);
    + simulates each speculated block on the dual-engine machine under
      every misprediction scenario (enumerated exactly up to the
      configuration's cap, Monte-Carlo sampled beyond it), and prices the
      same block under the static-recovery scheme ([Vp_engine],
      [Vp_baseline]).

    The result contains everything the experiment layer needs; nothing
    downstream re-runs a simulator. Value profiles and whole runs are
    memoized in bounded {!Vp_util.Memo} instances (see {!run_program});
    the per-block artifacts go through {!Spec_unit}. *)

type scenario_eval = {
  outcomes : Vp_engine.Scenario.t;
  probability : float;
      (** exact for enumerated scenarios; [1/draws] for sampled ones *)
  result : Vp_engine.Dual_engine.result;
  recovery_cycles : int;  (** same scenario under the static scheme *)
  recovery_compensation : int;
}

type spec_eval = {
  sb : Vp_vspec.Spec_block.t;
  rates : float array;  (** per prediction, profiled rate *)
  scenarios : scenario_eval list;
  draws : int;
      (** evaluated outcome vectors — [2^k] when enumerated, the
          Monte-Carlo draw count when sampled *)
  unique_scenarios : int;
      (** distinct vectors among them; [Vp_engine.Compiled.run_bitset]
          simulates each distinct vector once and shares the result with
          its sampling duplicates, so [draws - unique_scenarios]
          simulations were saved *)
  best : Vp_engine.Dual_engine.result;  (** all predictions correct *)
  worst : Vp_engine.Dual_engine.result;  (** all predictions incorrect *)
  p_all_correct : float;
  p_all_incorrect : float;
  recovery : Vp_baseline.Static_recovery.t;
}

type block_eval = {
  index : int;
  count : int;
  original_cycles : int;
  original_instructions : int;
      (** VLIW instruction count of the original schedule (code size) *)
  skip_reason : string option;  (** why the block was not speculated *)
  spec : spec_eval option;
}

type t = {
  config : Config.t;
  model : Vp_workload.Spec_model.t;
  workload : Vp_workload.Workload.t;
  program : Vp_ir.Program.t;
      (** the program the blocks were evaluated against — the workload's
          own for {!run}, the formed region program for {!run_program} *)
  profile : Vp_profile.Value_profile.t;
  blocks : block_eval array;
}

val run : ?config:Config.t -> ?exec:Vp_exec.Context.t -> Vp_workload.Spec_model.t -> t

val run_program :
  ?config:Config.t ->
  ?exec:Vp_exec.Context.t ->
  ?profile:Vp_profile.Value_profile.t ->
  Vp_workload.Workload.t ->
  Vp_ir.Program.t ->
  t
(** Run the pipeline on a custom program whose loads reference the
    workload's value streams — used by the superblock (region) extension.
    [run] is [run_program] on the workload's own program.

    [profile] supplies a precomputed value profile of [program]; without it
    one is computed here. [run] passes a memoized profile — the profile is
    a pure function of (model, seed, predictors), so config sweeps that
    only vary the machine or the speculation policy reuse it instead of
    recomputing identical rates.

    Simulation is batched: each speculated block is lowered once by
    [Vp_engine.Compiled] — through the {!Spec_unit} cache, as are the
    baseline schedule and the transform, so sweep points varying only the
    CCE shape or the policy threshold reuse neighbouring artifacts — and
    its whole scenario set runs as one [exec] job via
    [Vp_engine.Compiled.run_bitset], which advances up to 63 outcome
    vectors per machine word and simulates each distinct vector once,
    sharing its result with the repeats. [exec] defaults to
    [Vp_exec.Context.sequential] (inline, no cache); results are
    bit-identical for any worker count, and whether the spec-unit cache
    is cold or warm.

    Whole runs are memoized: the result is pure in
    [(workload, program, config, profile)] — the reference draws fresh
    replayable stream instances, and [exec] affects only caching and
    parallelism — so a repeat call holding the same physical
    workload/program (the workload memo and [Region_unit] guarantee that
    for warm reruns and region sweep points) with a structurally equal
    config returns the finished evaluation. The memo is a
    {!Vp_util.Memo} bounded at 2048 runs. *)

val reference_of_block : t -> int -> Vp_engine.Reference.t
(** Reference execution of block [index] with its first dynamic load
    values — the one the pipeline simulated against. *)

val lanes : unit -> Vp_engine.Compiled.Lanes.t
(** The calling domain's lane arena, the one its scenario batches run in.
    Anything else evaluating compiled blocks on this domain (the trace
    simulator) reuses it instead of growing a second one. *)

val telemetry_json : unit -> string
(** Scenario-evaluation counters as a JSON object, for the [--telemetry]
    summary (the [spec_eval] section): how many lane words ran, how many
    vectors they carried ([vectors_per_word] is the resulting lane
    occupancy), and the whole-run memo's hit/miss counters. *)

val stats : t -> Vp_metrics.Summary.block_stats array
(** Reduce to the metric layer's per-block records. *)

val expected_recovery_cycles : block_eval -> float
(** Scenario-weighted static-recovery cycles of a block (original cycles if
    unspeculated). *)

val expected_recovery_compensation : block_eval -> float
(** Scenario-weighted serialized compensation cycles under the static
    scheme (0 if unspeculated). *)

val expected_stall_cycles : block_eval -> float
(** Scenario-weighted VLIW stall cycles under the dual-engine scheme. *)

val effective : Config.t -> Vp_engine.Dual_engine.result -> int
(** Alias of {!Config.effective_cycles}. *)
