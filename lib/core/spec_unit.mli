(** Shared cache of per-block compilation artifacts ("spec units").

    A config sweep re-derives, for every sweep point, artifacts that are
    pure functions of a small key:

    - the baseline {b list schedule} of a block — (machine descr, block);
    - the {b vspec transform} outcome of a block — (machine descr, policy,
      profiled load rates, block), and {e not} the CCE shape, the scenario
      caps, or any other [Config] knob;
    - the {b profiled rates} of a value stream — (workload seed, stream
      id, stream shape, samples, predictor kinds).

    This module memoizes all three so neighbouring sweep points share them
    instead of recomputing. The block keys name their block physically
    ([==]): sweep points evaluate the workload memo's one physical
    program, and region formation keeps each block it does not merge (a
    superblock program's residual blocks are the base program's own). The
    rest of each key (machine description, policy, rates) is compared by
    value. A structurally equal copy of a block is a new key: it misses,
    and computes the same artifact. A transform hit returns the same
    physical spec block to every sharer, and the preparation memo
    ([Pipeline.prep_cached]) keys on that: a speculated block's compiled
    kernel lives there, not here, and holds no CCE shape, so every shape
    runs the one kernel.

    {b Threshold normalization.} The transform consults the policy
    threshold only as the predicate [rate >= threshold] (selection and the
    no-candidates message); its outcome is otherwise a function of the
    rates that pass. The transform key therefore zeroes the threshold and
    masks every failing rate to [None], so sweep points that differ only in
    threshold share one entry whenever the same loads qualify. The one
    observable difference — the "no load above the %.2f profile threshold"
    message embeds the threshold — is rewritten on every return.

    Every table is a {!Vp_util.Memo}: bounded, striped, first insert wins.
    Results are structurally equal to the uncached computations —
    property-tested in [test/test_spec_unit.ml] — so pipeline output is
    byte-identical whether the cache is warm or cold. *)

type stats = Vp_util.Memo.stats = { hits : int; misses : int; evictions : int }

val stats : unit -> stats
(** Process-wide counters summed over the three artifact tables: [hits]
    counts lookups a table answered, [misses] actual computations,
    [evictions] entries dropped by a table's bound. *)

val clear : unit -> unit
(** Drop every in-memory entry and zero {!stats} (tests, benchmarks). *)

val schedule : Vp_machine.Descr.t -> Vp_ir.Block.t -> Vp_sched.Schedule.t
(** Cached [Vp_sched.List_scheduler.schedule_block], keyed on the block
    ([==]) and the machine description. *)

val transform :
  policy:Vp_vspec.Policy.t ->
  Vp_machine.Descr.t ->
  rates:float option array ->
  Vp_ir.Block.t ->
  Vp_vspec.Transform.outcome
(** Cached [Vp_vspec.Transform.apply], keyed on the block ([==]), the
    machine description, the threshold-normalized policy and the masked
    rates. [rates] holds the profiled rate of every operation by id
    ([None] for non-loads and unprofiled loads). The baseline schedule is
    obtained through {!schedule}, so a transform miss still reuses a
    cached schedule. *)

val profile_rates :
  Vp_workload.Workload.t ->
  stream:int ->
  samples:int ->
  kinds:Vp_predict.Predictor.kind list ->
  float array
(** Cached [Vp_profile.Value_profile.stream_rates]. Keyed by (workload
    seed, stream id, stream shape, samples, kinds) — the stream values are
    a pure function of those, so sweep points and region programs that
    profile the same streams share one entry. Suitable as the [?rates]
    hook of [Value_profile.profile]. *)
