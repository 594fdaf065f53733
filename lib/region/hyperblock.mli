(** Hyperblock formation — if-conversion of two-way branches into
    predicated straight-line regions (the other half of the paper's
    "hyperblocks and superblocks" future-work sentence).

    For a block ending in a compare+branch whose taken edge leads to
    another block, formation:

    + drops the branch and keeps the compare (its result [p] becomes the
      predicate);
    + appends the taken-side block's body with every operation guarded on
      [(p, true)] — it executes exactly when the branch would have been
      taken — with that body's registers renamed into a private range
      (real if-converters rename too; privacy also keeps the guarded
      may-writes from aliasing the main path's results, which the
      speculation machinery relies on);
    + a trailing branch of the absorbed block is dropped (no nested
      control), its compare kept.

    Only branches whose taken probability is at least [min_taken] are
    converted (if-conversion pays when the side path executes often enough
    to be worth fetching), and only when the absorbed body is at most
    [max_cold_size] operations. Guarded operations with first-write
    destinations may be value-speculated — the engines capture the old
    destination value and restore it when recovery finds the operation
    predicated off — so the side paths' loads and chains participate in
    prediction; the [hyperblocks] artifact
    ([Vliw_vp.Experiments.hyperblocks]) measures the effect. *)

type params = {
  min_taken : float;
      (** convert only branches at least this likely to take the side path *)
  max_cold_size : int;  (** largest absorbed body, in operations *)
}

val default_params : params
(** taken probability ≥ 0.05 (the derived CFGs bias fall-through to
    0.60–0.95, so side paths run 5–40% of the time), absorbed bodies of at
    most 24 operations. *)

val form :
  Vp_workload.Workload.t ->
  Vp_workload.Cfg.t ->
  params ->
  Vp_ir.Program.t * int
(** The if-converted program and the number of hyperblocks formed. Block
    counts are preserved: the converted block keeps its count, and the
    absorbed block keeps the executions that entered it from elsewhere
    ([count - round (converter count * taken probability)], floored at 0;
    blocks left with no executions are dropped). Deterministic. *)
