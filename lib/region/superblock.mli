(** Superblock formation — the paper's future-work extension.

    Section 3 closes with: "For larger regions such as hyperblocks and
    superblocks, we expect to see a further improvement" — longer
    straight-line regions expose longer dependence chains through more
    loads, which is exactly what value prediction attacks. This module
    implements the classic trace-based superblock builder over the
    workload's control-flow graph so that expectation can be measured:

    + {b trace selection}: seed at the hottest unvisited block, grow along
      the most likely successor while its edge probability meets the
      threshold, the target is unvisited, and the trace is below the length
      cap (the "mutually most likely" heuristic simplified to forward
      growth);
    + {b merging}: a trace's blocks are concatenated into one block;
      interior branches are removed (the superblock assumes its biased
      fall-through; side-exit bookkeeping is abstracted away, as tail
      duplication makes the straight-line body architecturally valid);
      compares keep their results;
    + {b stitching}: with probability [stitch], a later trace block's
      live-in operand is rewritten to read a result of an earlier trace
      block — the cross-block dataflow that real consecutive hot blocks
      have and that makes regions worth forming;
    + {b counts}: the superblock inherits its head's execution count;
      interior blocks keep the residual [max 0 (count - head count)] as
      standalone blocks (side entries).

    Loads keep their stream ids, so the value-profiling and simulation
    pipeline runs unchanged on the formed program, and residual blocks are
    the workload program's own physical blocks, so the pipeline's
    per-block caches serve them from the basic-block run. Selection and
    merging run once per {!form} call; [Vliw_vp.Region_unit] memoizes
    whole formations. *)

type params = {
  max_blocks : int;  (** trace length cap (in basic blocks) *)
  min_probability : float;  (** grow only along edges at least this likely *)
  min_count : int;  (** minimum execution count for a trace seed *)
  stitch : float;  (** cross-block operand-stitching probability *)
}

val default_params : params
(** 4-block traces, 0.6 edge threshold, seeds ≥ 10 executions,
    stitch 0.8. *)

type trace = {
  head : int;  (** seed block index *)
  blocks : int list;  (** block indexes in trace order (head first) *)
  count : int;  (** execution count assigned to the superblock *)
}

val select_traces :
  Vp_workload.Cfg.t -> Vp_ir.Program.t -> params -> trace list
(** Greedy hot-trace cover; every block appears in at most one trace, and
    single-block traces are returned too (they merge to themselves). *)

val form :
  Vp_workload.Workload.t ->
  Vp_workload.Cfg.t ->
  params ->
  Vp_ir.Program.t * trace list
(** Build the superblock program. Deterministic in [(workload, cfg)]: the
    merge's random choices are seeded from the workload's own seed
    ([Vp_workload.Workload.seed]). The returned program contains one
    merged block per multi-block trace, plus every original block that
    retains residual executions. A residual block is the workload
    program's own physical [Vp_ir.Block.t] with its count reduced, so
    caches keyed on the physical block share its artifacts with the
    basic-block program. *)
