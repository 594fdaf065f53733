(** Cycle-level co-simulation of the proposed architecture: the VLIW Engine
    and the Compensation Code Engine executing speculated blocks under given
    misprediction scenarios.

    One clock loop runs a fetch stream of block instances. Each speculated
    instance has its own registers and Synchronization register; every
    instance shares the one CCB and the one CCE. Two entry points feed it:
    {!run} streams a single block (the Figure-7 machine, and the reference
    the compiled kernels are held to), and {!run_sequence} streams
    consecutive dynamic blocks.

    The simulator implements the semantics of Sections 2.2–2.3:

    {b VLIW Engine.} Instructions issue strictly in order, one per cycle. An
    instruction whose wait mask intersects the Synchronization register
    stalls (and stalls everything behind it). [LdPred] sets its bit at issue
    and delivers the predicted value one cycle later; a speculative
    operation sets its bit at issue, executes with whatever (possibly
    predicted, possibly wrong) operand values the register file holds, and a
    copy is enqueued in the Compensation Code Buffer; a check-prediction
    operation re-executes the load with verified operands and, at
    completion, clears the prediction's bit, writes the correct value, and
    broadcasts the comparison outcome — clearing the bits of speculative
    operations whose every prediction has now verified correct.

    {b Compensation Code Engine.} Retires at most one CCB head entry per
    cycle, in FIFO order. The head stalls until every operand's state is
    known in the Operand Value Buffer (outcomes arrive one cycle after the
    check completes, as in the paper's Figure 7 walkthrough); it is
    {e flushed} when all operands were correct and {e re-executed} with
    correct operand values otherwise, delivering its result — and clearing
    its Synchronization-register bit — after the operation's latency. A
    re-executed operation that turns out predicated off instead
    {e restores} the old destination value captured at issue (the
    transform only speculates guarded operations with first-write
    destinations, making the capture exact). Results are written back to
    the VLIW register file only where the transform's write-back analysis
    allows (see [Vp_vspec.Spec_block]).

    {b Shared clock.} Pricing a block alone forces an accounting decision:
    charge compensation work still draining in the CCE to the block that
    spawned it ([cycles]), or let it overlap the next block
    ([vliw_cycles])? The machine the paper describes does the latter —
    "Any code executed due to mispredictions is executed in parallel with
    the VLIW instructions" — but the overlap is not free: the single
    in-order CCE is shared, so one block's recovery backlog delays the
    next block's. {!run_sequence} simulates this: instance [i+1]'s first
    instruction follows instance [i]'s last, every speculated operation
    enters the one CCB in global order, and each instance stalls on its
    own Synchronization register. A sequence total therefore lands between
    the two per-block bounds:

    {v  Σ vliw_cycles  ≲  total  ≤  Σ cycles  v}

    which the overlap-validation experiment measures per benchmark.
    Registers are private per instance except the read-only live-ins
    (generated blocks are register-disjoint apart from those), and
    Synchronization-register bits are namespaced per in-flight instance
    (hardware tags; the compiler's per-block bit indices never collide
    because blocks share no speculative dataflow).

    A full CCB stalls the VLIW engine (structural hazard), letting
    experiments study CCB sizing. Bounding the CCB is a hardware/compiler
    co-design: if the compiler speculates more operations than the buffer
    holds, the machine can genuinely deadlock (the stalled instruction's
    speculative operations cannot enter the full buffer, whose head waits
    for a check that has not issued). The transform's
    [Policy.max_sync_bits] budget is the compiler-side cap; configurations
    that bound the CCB must bound the budget to match
    ([Vliw_vp.Config.with_ccb_capacity] sets both).

    The transform's static progress guarantee makes deadlock impossible; the
    simulator still watches a generous cycle budget and raises {!Deadlock}
    rather than spinning, so the guarantee is itself testable. *)

type result = {
  cycles : int;
      (** full-drain latency: the cycle by which every architectural effect
          (register writes, including compensation writes, and stores) has
          completed *)
  vliw_cycles : int;
      (** VLIW-retire latency: the cycle by which the VLIW Engine itself is
          done (every instruction issued, stalls included, and its results
          complete). Compensation work still draining in the CCE past this
          point overlaps the next block's execution — "compensation code is
          executed in parallel with the VLIW instructions" — so this is the
          paper-faithful per-block charge; [cycles] is the conservative
          all-inclusive one. Always [vliw_cycles <= cycles]. *)
  stall_cycles : int;  (** cycles the VLIW engine spent stalled *)
  flushed : int;  (** CCB entries discarded as correctly speculated *)
  recomputed : int;  (** CCB entries re-executed *)
  ccb_high_water : int;  (** maximum CCB occupancy *)
  mispredicted : int;  (** number of incorrect predictions in the scenario *)
  final_regs : (int * int) list;
      (** final values of every register the {e original} block touches,
          ascending by register — directly comparable to
          [Reference.final_regs] *)
  stores : (int * int) list;  (** (address, value) pairs in commit order *)
}

exception Deadlock of string

val run :
  ?ccb_capacity:int ->
  ?cce_retire_width:int ->
  ?observer:Engine_trace.observer ->
  Vp_vspec.Spec_block.t ->
  reference:Reference.t ->
  live_in:(int -> int) ->
  outcomes:Scenario.t ->
  result
(** [run sb ~reference ~live_in ~outcomes] simulates one execution.
    [reference] must be the reference execution of [sb.original_block] with
    this execution's load values and the same [live_in]. [outcomes] has one
    entry per prediction of [sb]. [ccb_capacity] defaults to unbounded.
    [cce_retire_width] (default 1, the paper's Figure-7 machine) lets the
    CCE retire several CCB heads per cycle — the extension the region
    experiments need, where speculation sets grow with the region size and
    a single-retire CCE becomes the recovery bottleneck. [observer]
    receives one [Engine_trace.snapshot] per simulated cycle (the paper's
    Figure-7 view); omit it for plain timing runs. Raises
    [Invalid_argument] on shape mismatches, and {!Deadlock} with a message
    naming the block, the cycle, the next instruction, the pending events,
    the CCB head and the set sync bits — the message
    [Compiled.run_bitset] reproduces byte for byte. *)

val run_unspeculated :
  Vp_sched.Schedule.t -> reference:Reference.t -> result
(** Execution of an untransformed block: no stalls, no compensation — the
    result simply packages the static schedule length with the reference's
    architectural state, for uniform accounting in the experiments. *)

(** {1 Block sequences} *)

type item =
  | Plain of Vp_sched.Schedule.t * Reference.t
      (** an unspeculated block: occupies the fetch stream for its
          schedule, no predictions *)
  | Speculated of {
      sb : Vp_vspec.Spec_block.t;
      reference : Reference.t;
      outcomes : Scenario.t;
    }

type sequence_result = {
  total_cycles : int;
      (** last completion of anything (VLIW results, CCE recoveries,
          stores) across the whole sequence *)
  issue_cycles : int;  (** cycle after the last instruction issued *)
  stall_cycles : int;  (** total VLIW stall cycles *)
  flushed : int;
  recomputed : int;
  ccb_high_water : int;
  state_ok : bool;
      (** every instance's final registers and stores matched its
          reference — the sequence-level equivalence check *)
}

val run_sequence :
  ?ccb_capacity:int ->
  ?cce_retire_width:int ->
  live_in:(int -> int) ->
  item list ->
  sequence_result
(** Simulate the items back to back on one clock. Raises
    [Invalid_argument] on the shape mismatches {!run} rejects, and
    {!Deadlock} (message ["sequence: no progress by cycle N (P pending)"])
    on lack of progress, impossible for transforms produced with an
    unbounded CCB. *)
