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
    the per-block schedules and transforms go through {!Spec_unit}, and
    each speculated block's preparation through {!prep_cached}. *)

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

val run : ?config:Config.t -> Vp_workload.Spec_model.t -> t

val run_program :
  ?config:Config.t ->
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

    Each speculated block's outcome-independent preparation goes through
    {!prep_cached}; the baseline schedule and the transform go through the
    {!Spec_unit} cache, so sweep points varying only the CCE shape or the
    policy threshold reuse neighbouring artifacts. Simulation is batched:
    each speculated block is lowered once by [Vp_engine.Compiled], in its
    preparation, and its whole scenario set runs in one call of
    [Vp_engine.Compiled.run_bitset] at the config's CCB capacity and CCE
    retire width, which advances up to 63 outcome vectors per machine
    word and simulates each distinct vector once, sharing its result with
    the repeats. Blocks are evaluated in order in
    the calling domain; parallelism and the on-disk store live one level
    up, on the {!Vp_exec.Graph} nodes that call the pipeline. Results are
    the same whether the spec-unit cache and the preparation memo are
    cold or warm.

    Whole runs are memoized: the result is pure in
    [(workload, program, config, profile)] — the reference draws fresh
    replayable stream instances — so a repeat call holding the same
    physical workload/program (the workload memo and [Region_unit]
    guarantee that for warm reruns and region sweep points) with a
    structurally equal config returns the finished evaluation. The memo
    is a {!Vp_util.Memo} bounded at 2048 runs. *)

(** The outcome-independent half of a speculated block's evaluation. It
    depends on neither the CCE shape nor the branch penalty. *)
type spec_prep = {
  prep_sb : Vp_vspec.Spec_block.t;
  prep_reference : Vp_engine.Reference.t;
      (** the block run on the first values of fresh stream instances *)
  prep_kernel : Vp_engine.Compiled.t;
      (** [prep_sb] compiled against [prep_reference] and
          {!Vp_engine.Reference.live_in}; immutable, so every sweep point
          and domain runs the one kernel at its own CCE shape *)
  prep_rates : float array;  (** per prediction, profiled rate *)
  prep_vectors : (Vp_engine.Scenario.t * float) list;
      (** the outcome vectors to simulate, each with its probability *)
  prep_recovery : Vp_baseline.Static_recovery.t;
      (** priced at each config's branch penalty when evaluated *)
}

val prep_spec :
  Config.t -> Vp_workload.Workload.t -> Vp_vspec.Spec_block.t -> spec_prep
(** [prep_spec config workload sb] computed afresh. It reads [sb],
    the workload's streams, and of [config] only [width], [seed],
    [max_enumerated_predictions] and [monte_carlo_draws]. *)

val prep_cached :
  Config.t -> Vp_workload.Workload.t -> Vp_vspec.Spec_block.t -> spec_prep
(** {!prep_spec} through the preparation memo the pipeline evaluates
    every speculated block with: a {!Vp_util.Memo} bounded at 8192
    entries, keyed physically on [sb] and the workload and by value on
    the four config fields {!prep_spec} reads, so sweep points that share
    a transform — every CCE-width, branch-penalty and accounting point —
    share its preparation and kernel. The trace simulator takes its
    kernels from here too. *)

val reference_of_block : t -> int -> Vp_engine.Reference.t
(** Reference execution of block [index] with its first dynamic load
    values — the one the pipeline simulated against. *)

val lanes : unit -> Vp_engine.Compiled.Lanes.t
(** The calling domain's lane arena, the one its scenario batches run in.
    Anything else evaluating compiled blocks on this domain (the trace
    simulator) reuses it instead of growing a second one. *)

val telemetry_json : unit -> string
(** Scenario-evaluation counters as a JSON object, for the [--telemetry]
    summary (the [spec_eval] section): how many lane words the scenario
    batches ran, how many vectors they carried ([vectors_per_word] is the
    resulting lane occupancy), and the whole-run memo's hit/miss
    counters, and the preparation memo's ([prep_memo_hits],
    [prep_memo_misses]; see {!prep_cached}). The trace simulator's
    one-vector replays are not batches; they count as its
    [engine_replays]. *)

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
