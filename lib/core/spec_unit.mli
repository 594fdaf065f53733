(** Shared cache of per-block compilation artifacts ("spec units").

    A config sweep re-derives, for every sweep point, three artifacts per
    block that are pure functions of a small content key:

    - the baseline {b list schedule} — (machine descr, block IR);
    - the {b vspec transform} outcome — (machine descr, policy, profiled
      load rates, block IR), and {e not} the CCE shape, the scenario caps,
      or any other [Config] knob;
    - the {b compiled kernel} ([Vp_engine.Compiled.t]) — (spec block,
      reference, CCB capacity, CCE retire width).

    This module memoizes all three so neighbouring sweep points share them
    instead of recomputing. Schedules and transform outcomes live in
    process-wide hash tables keyed by a content digest
    ({!Vp_exec.Store.key}: every input is plain data, so equal inputs get
    one key); compiled kernels are keyed physically on the spec block (a
    transform cache hit returns the same physical block, which is
    precisely the sweep-reuse case) because digesting a whole spec block
    would cost more than the ~6 µs compile it saves.

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
(** Process-wide counters summed over the four artifact tables: [hits]
    counts lookups a table answered, [misses] actual computations,
    [evictions] entries dropped by a table's bound. *)

val clear : unit -> unit
(** Drop every in-memory entry and zero {!stats} (tests, benchmarks). *)

val schedule :
  ?ident:string * int ->
  Vp_machine.Descr.t ->
  Vp_ir.Block.t ->
  Vp_sched.Schedule.t
(** Cached [Vp_sched.List_scheduler.schedule_block]. [ident] is a
    [(content digest, block index)] pair naming the block by provenance —
    the pipeline passes [(Region_unit.digest_of program, index)] for
    region-formed programs — and substitutes the marshalled block IR in
    the key (under a distinct tag, so the two keyings cannot collide):
    keying a region block costs a few dozen digested bytes instead of its
    whole IR. Callers are responsible for the digest actually determining
    the block's content. *)

val transform :
  ?ident:string * int ->
  policy:Vp_vspec.Policy.t ->
  Vp_machine.Descr.t ->
  rates:float option array ->
  Vp_ir.Block.t ->
  Vp_vspec.Transform.outcome
(** Cached [Vp_vspec.Transform.apply]. [rates] holds the profiled rate of
    every operation by id ([None] for non-loads and unprofiled loads) —
    an array rather than a closure so it can be hashed into the key. The
    baseline schedule is obtained through {!schedule}, so a transform miss
    still reuses a cached schedule. [ident] as in {!schedule} (the masked
    rates stay in the key — they depend on the profile, not the block). *)

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

val compiled :
  ?ccb_capacity:int ->
  cce_retire_width:int ->
  Vp_vspec.Spec_block.t ->
  reference:Vp_engine.Reference.t ->
  Vp_engine.Compiled.t
(** Cached [Vp_engine.Compiled.compile] with the live-ins every simulation
    uses ({!Vp_engine.Reference.live_in}), keyed physically on [sb] and
    structurally on the reference and machine shape. In-memory only. *)
