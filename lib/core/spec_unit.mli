(** Shared cache of per-block compilation artifacts ("spec units").

    A config sweep re-derives, for every sweep point, three artifacts per
    block that are pure functions of a small content key:

    - the baseline {b list schedule} — (machine descr, block IR);
    - the {b vspec transform} outcome — (machine descr, policy, profiled
      load rates, block IR), and {e not} the CCE shape, the scenario caps,
      or any other [Config] knob;
    - the {b compiled kernel} ([Vp_engine.Compiled.t]) — (spec block,
      reference, live-ins, CCB capacity, CCE retire width).

    This module memoizes all three so neighbouring sweep points share them
    instead of recomputing. Schedules and transform outcomes live in
    process-wide hash tables keyed by a content digest
    ([Marshal] + MD5, with [Marshal.Closures] — keys are only meaningful
    within one binary, exactly the [Vp_exec.Store] contract) and are
    optionally backed by an on-disk store so repeated {e runs} also share;
    compiled kernels are keyed physically on the spec block (a transform
    cache hit returns the same physical block, which is precisely the
    sweep-reuse case) because digesting a whole spec block would cost more
    than the ~6 µs compile it saves.

    {b Threshold normalization.} The transform consults the policy
    threshold only as the predicate [rate >= threshold] (selection and the
    no-candidates message); its outcome is otherwise a function of the
    rates that pass. The transform key therefore zeroes the threshold and
    masks every failing rate to [None], so sweep points that differ only in
    threshold share one entry whenever the same loads qualify. The one
    observable difference — the "no load above the %.2f profile threshold"
    message embeds the threshold — is rewritten on every return.

    All operations are thread-safe and {b sharded}: a key hashes to one of
    {!stripe_count} stripes, each with its own mutex and tables, so worker
    domains draining a warm sweep stop serializing on a single global
    lock. Computation happens outside the stripe lock — racing domains may
    duplicate work but never produce a wrong answer — and the
    hit/miss/eviction counters are per-stripe atomics bumped outside any
    lock, so {!stats} stays exact under any interleaving. Results are
    structurally equal to the uncached computations — property-tested in
    [test/test_spec_unit.ml] — so pipeline output is byte-identical with
    the cache on, off, warm or cold. *)

val version : int
(** Artifact-format version. Bumped whenever the semantics of the cached
    artifacts change; it is part of every content key here {e and} must be
    hashed into any job key whose results depend on these artifacts (the
    pipeline's scenario batches, the experiment layer's table keys), so
    stale entries — in memory, on disk, or in derived caches — can never
    resurface across a version bump. *)

val set_enabled : bool -> unit
(** [set_enabled false] (the [--no-spec-cache] flag) makes every call
    compute directly; existing entries are kept but not consulted. *)

val enabled : unit -> bool

type stats = { hits : int; misses : int; evictions : int }

val stats : unit -> stats
(** Process-wide counters, summed over stripes: [hits] counts memory and
    store hits, [misses] actual computations, [evictions] entries dropped
    by a stripe's table cap. *)

val stripe_count : int
(** Number of cache shards (a power of two; keys hash to a stripe). *)

val stripe_stats : unit -> stats array
(** Per-stripe counters, index-aligned with the stripes — the telemetry
    view of how evenly the key hash spreads the load. *)

val telemetry_json : ?extra:(string * string) list -> unit -> string
(** [{"hits": .., "misses": .., "evictions": .., "stripes": [{"hits": ..,
    "misses": ..}, ...]}] — the [spec_unit] section front ends attach to
    the [--telemetry] summary via [Vp_exec.Cli.emit_telemetry ~extra].
    [extra] appends [(name, json)] pairs as further fields of the object —
    the front ends use it to nest the sibling region-formation memo's
    counters under the same section. *)

val clear : unit -> unit
(** Drop every in-memory entry and zero {!stats} (tests, benchmarks). *)

val schedule :
  ?store:Vp_exec.Store.t ->
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
    the block's content; [None] keeps the historical key bytes. *)

val transform :
  ?store:Vp_exec.Store.t ->
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
  ?store:Vp_exec.Store.t ->
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
  live_in:(int -> int) ->
  Vp_vspec.Spec_block.t ->
  reference:Vp_engine.Reference.t ->
  Vp_engine.Compiled.t
(** Cached [Vp_engine.Compiled.compile], keyed physically on [sb] and
    structurally on the reference and machine shape; [live_in] is compared
    physically. In-memory only, bounded by a table cap (a full reset when
    exceeded, counted in {!stats} evictions). *)
