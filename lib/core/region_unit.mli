(** Content-keyed region-formation cache — the region fast lane's front
    door.

    Region formation ([Vp_region.Superblock.form] /
    [Vp_region.Hyperblock.form]) is deterministic in
    [(workload, cfg, seed, params)], yet the region experiments used to
    re-run it — and everything downstream of the fresh program it
    returns — on every call. This module memoizes formation on a content
    key derived from exactly those inputs (plus {!Spec_unit.version}), in
    a sharded in-process table optionally backed by a {!Vp_exec.Store},
    with two guarantees the rest of the fast lane builds on:

    + {b physical sharing}: every in-process call with one key returns the
      {e same physical} [Vp_ir.Program.t] (racing domains converge on the
      first insert). That is what makes the downstream physically-keyed
      caches — [Spec_unit.compiled], the pipeline memo — hit across sweep
      points and warm reruns without any further plumbing;
    + {b a stable content digest}: the formation key is recorded in a
      physically-keyed registry, so a formed program can be identified by
      a few dozen digest bytes ({!digest_of}) instead of its marshalled
      IR — threaded into spec-unit artifact keys and experiment job keys.

    Trace selection is memoized separately from merging, keyed without the
    [stitch] parameter (selection never reads it), so frontier sweep
    points over formation params share the selection work.

    Keys include {!Spec_unit.version}: a version bump retires cached
    region artifacts — in memory, on disk, and in every derived cache —
    together with the spec-unit artifacts they were built against.
    Everything is gated on {!Spec_unit.enabled}: under [--no-spec-cache]
    each call forms fresh and registers nothing, and results are
    structurally identical either way (QCheck-tested in
    [test/test_region_unit.ml]). *)

val superblock :
  ?store:Vp_exec.Store.t ->
  ?seed:int ->
  Vp_workload.Workload.t ->
  Vp_workload.Cfg.t ->
  Vp_region.Superblock.params ->
  Vp_ir.Program.t * Vp_region.Superblock.trace list
(** Cached [Vp_region.Superblock.form] (default seed 42, like [form]). *)

val hyperblock :
  ?store:Vp_exec.Store.t ->
  Vp_workload.Workload.t ->
  Vp_workload.Cfg.t ->
  Vp_region.Hyperblock.params ->
  Vp_ir.Program.t * int
(** Cached [Vp_region.Hyperblock.form]. *)

val digest_of : Vp_ir.Program.t -> string option
(** The formation key under which this physical program was formed (or
    restored), [None] for programs that did not come out of this module —
    basic-block programs, or entries dropped by the bounded registry.
    Callers must treat [None] as "fall back to content-free keying",
    never as an error. *)

val stats : unit -> Spec_unit.stats
(** Process-wide formation-memo counters: [hits] counts memory and store
    hits, [misses] actual formations, [evictions] entries dropped by a
    stripe's table cap. *)

val clear : unit -> unit
(** Drop every in-memory entry (including the digest registry) and zero
    {!stats} (tests, benchmarks). *)
