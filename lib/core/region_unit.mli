(** Content-keyed region-formation cache — the region fast lane's front
    door.

    Region formation ([Vp_region.Superblock.form] /
    [Vp_region.Hyperblock.form]) is deterministic in
    [(workload, cfg, seed, params)], yet the region experiments used to
    re-run it — and everything downstream of the fresh program it
    returns — on every call. This module memoizes formation in memory, in
    {!Vp_util.Memo} instances keyed on exactly those inputs, so every
    in-process call with one key returns the {e same physical}
    [Vp_ir.Program.t] (racing domains converge on the first insert). That
    is what makes the downstream physically keyed caches — the pipeline's
    whole-run memo, and through the transform memo its preparation memo
    and the kernels it holds — hit across sweep points and warm reruns
    without any further plumbing. The blocks formation does not
    merge are the base program's own physical blocks, so their
    [Spec_unit] schedules and transforms are the base run's.

    Formation is not stored on disk: it costs less than a store round
    trip, and the region rows that read it are stored graph nodes, so a
    warm run never forms. Cached results are structurally identical to
    fresh formation (QCheck-tested in [test/test_region_unit.ml]). *)

val superblock :
  ?seed:int ->
  Vp_workload.Workload.t ->
  Vp_workload.Cfg.t ->
  Vp_region.Superblock.params ->
  Vp_ir.Program.t * Vp_region.Superblock.trace list
(** Cached [Vp_region.Superblock.form] (default seed 42, like [form]). *)

val hyperblock :
  Vp_workload.Workload.t ->
  Vp_workload.Cfg.t ->
  Vp_region.Hyperblock.params ->
  Vp_ir.Program.t * int
(** Cached [Vp_region.Hyperblock.form]. *)

val stats : unit -> Spec_unit.stats
(** Process-wide formation-memo counters: [hits] counts lookups answered
    from memory, [misses] actual formations, [evictions] entries dropped
    by a table's bound. *)

val clear : unit -> unit
(** Drop every in-memory entry and zero {!stats} (tests, benchmarks). *)
