(** The prior value-speculation recovery scheme (the paper's reference [4]).

    Instead of a second engine, each prediction gets a statically scheduled
    {e compensation block} holding the operations that were speculated on
    it. When a check detects a misprediction, control branches to the
    compensation block, executes it to completion, and branches back — all
    on the one VLIW engine, serialized with the main code. Section 1 lists
    the three costs this reproduction models:

    - the main schedule stops while compensation code runs;
    - every recovery pays two control transfers (branch penalties);
    - compensation blocks live in instruction memory and pollute the
      instruction cache (quantified separately by {!Layout} +
      [Vp_cache.Icache]).

    The speculation decisions (which loads, which dependents) are shared
    with the dual-engine scheme — both consume the same
    [Vp_vspec.Spec_block.t] — so the comparison isolates the recovery
    mechanism, as in the paper's Section 3 comparison experiment.

    An operation speculated on several predictions appears in each one's
    compensation block (the blocks are per-prediction, as in [4]); when
    several predictions miss, it is re-executed once per miss. This double
    work is part of the scheme's cost and is preserved. *)

type comp_block = {
  prediction : int;  (** prediction index this block recovers *)
  op_ids : int list;  (** transformed ids of the re-executed operations *)
  schedule : Vp_sched.Schedule.t;  (** the compensation block's schedule *)
}

type t

val build : Vp_machine.Descr.t -> Vp_vspec.Spec_block.t -> t
(** Schedule one compensation block per prediction on the given machine.
    The model holds no branch penalty: {!cycles} and
    {!compensation_cycles} charge it, so one model serves every
    penalty. *)

val spec : t -> Vp_vspec.Spec_block.t

val comp_blocks : t -> comp_block array

val cycles : ?branch_penalty:int -> t -> outcomes:Vp_engine.Scenario.t -> int
(** Execution cycles of the block under the scenario, excluding cache
    effects: the speculative schedule's length plus, per mispredicted
    load, two branch penalties and the compensation block's schedule
    length. [branch_penalty] (default 2) is charged per control transfer,
    twice per recovery. *)

val compensation_cycles :
  ?branch_penalty:int -> t -> outcomes:Vp_engine.Scenario.t -> int
(** The serialized recovery part alone (branches + compensation blocks),
    at the same [branch_penalty]. *)

val main_code_instructions : t -> int
(** Instruction count of the main (speculative) schedule. *)

val compensation_instructions : t -> int
(** Total instruction count of all compensation blocks — the static code
    growth of the scheme. *)
