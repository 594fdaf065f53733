(** The value-speculation transform — the compiler half of the paper.

    Given a basic block, a machine description and the profiled prediction
    rate of each load, [apply]:

    + schedules the original block (the baseline);
    + selects the loads to predict: loads on the longest critical path whose
      profiled rate meets the policy threshold and that have at least one
      speculable dependent (Section 3's policy), capped by the policy's
      prediction budget and Synchronization-register width;
    + rewrites the block into the extended ISA: one [LdPred] per prediction
      (writing a fresh predicted-value register), the predicted load in
      check-prediction form, flow-dependents of predictions in speculative
      form (side-effecting operations — stores, branches — are never
      speculated and become non-speculative consumers that stall on
      Synchronization-register bits);
    + allocates Synchronization-register bits and the static wait masks of
      every VLIW instruction;
    + adds [Verify] edges so that a consumer's stall is always resolvable,
      and iteratively repairs the schedule until a static progress guarantee
      holds: when an instruction stalls on a bit, every check whose outcome
      the in-order Compensation Code Engine may need to reach that bit's
      producer has already issued. Without this, an in-order CCE can
      deadlock against a stalled VLIW engine; predictions whose checks
      cannot be ordered correctly are dropped.

    The transform never changes observable semantics: the speculative block
    executed on the dual-engine machine (any misprediction pattern) leaves
    the same final register/memory state as the original block executed
    sequentially — property-tested in [test/test_engine.ml]. *)

type outcome =
  | Speculated of Spec_block.t
  | Unchanged of string
      (** The block was left alone; the string says why (no loads above
          threshold, no speculable dependents, budget exhausted, ...). *)

val apply :
  ?policy:Policy.t ->
  ?baseline:Vp_sched.Schedule.t ->
  Vp_machine.Descr.t ->
  rate:(Vp_ir.Operation.t -> float option) ->
  Vp_ir.Block.t ->
  outcome
(** [rate op] is the profiled value-prediction rate of load [op] ([None] if
    unprofiled, which disqualifies it).

    [baseline] supplies a precomputed list schedule of [block] on the same
    machine (e.g. from the spec-unit cache) so the transform reuses its
    dependence graph and baseline schedule instead of rebuilding them; it
    must schedule a structurally-equal block or the outcome is undefined
    ([Invalid_argument] on a size mismatch). *)

(** {1 Selection readings}

    The transform reads the block's dependences with loads predicted in
    two places: the growth rounds of load selection, and the earliest
    issue times that decide which dependents are worth speculating. Both
    read the baseline graph through a {!Vp_ir.Depgraph.mask} that replaces
    each predicted load by a dependence-free [Move] of its destination.
    [test/transform_ref.ml] supplies the versions that rebuild the graph
    of that virtual block instead, and holds {!apply} to them. *)

type readings = {
  select :
    Policy.t ->
    latency:(Vp_ir.Operation.t -> int) ->
    Vp_ir.Depgraph.t ->
    rate:(Vp_ir.Operation.t -> float option) ->
    Vp_ir.Block.t ->
    int list;
      (** [select policy ~latency graph ~rate block]: the loads to predict,
          ascending, given the block's baseline graph *)
  earliest_predicted :
    latency:(Vp_ir.Operation.t -> int) ->
    Vp_ir.Depgraph.t ->
    Vp_ir.Block.t ->
    bool array ->
    int array;
      (** [earliest_predicted ~latency graph block predicted]: earliest
          issue times with the [predicted] loads (by id) replaced *)
}

val masked : readings
(** What {!apply} reads: both off the baseline graph through a
    {!Vp_ir.Depgraph.mask}. *)

val apply_with :
  readings ->
  ?policy:Policy.t ->
  ?baseline:Vp_sched.Schedule.t ->
  Vp_machine.Descr.t ->
  rate:(Vp_ir.Operation.t -> float option) ->
  Vp_ir.Block.t ->
  outcome
(** {!apply} with the given readings; {!apply} is [apply_with masked]. *)
