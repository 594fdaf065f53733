(** Compile-once / run-many scenario kernel.

    [Dual_engine.run] is the oracle: it interprets a {!Vp_vspec.Spec_block}
    directly, building hashtable register files and per-cycle event queues
    on every call. Evaluating a block means running it under {e many}
    outcome vectors (enumerated scenarios plus Monte-Carlo draws), so
    everything that does not depend on the outcome vector — latencies,
    sync-bit ids, prediction-dependency counts, issue slots, wait masks,
    reference results — is recomputed wastefully.

    This module splits the work. {!compile} lowers a block once into flat
    immutable arrays; {!run_bitset} replays any set of outcome vectors
    against the compiled form, bit-parallel, using a caller-owned
    {!Lanes.t} of preallocated buffers, so the per-scenario cost is buffer
    resets rather than allocation.

    Semantics are exactly those of [Dual_engine.run] without an observer:
    identical [result] records (checked structurally by the kernel
    equivalence test suite on random blocks and outcome vectors) and the
    same [Dual_engine.Deadlock] exception, message included, on livelock. *)

type t
(** A speculated block lowered to flat arrays against one reference run
    and one live-in assignment. It holds no machine shape: {!run_bitset}
    takes the CCB capacity and CCE retire width, so one kernel serves
    every shape. Immutable, so domains may share it. *)

val compile :
  Vp_vspec.Spec_block.t -> reference:Reference.t -> live_in:(int -> int) -> t
(** [compile sb ~reference ~live_in] validates once what [Dual_engine.run]
    validates per call (reference/block agreement, latency positivity) and
    precomputes every outcome-independent quantity. Raises
    [Invalid_argument] exactly where the oracle would. *)

val num_predictions : t -> int
(** Number of predicted loads — the length {!run_bitset} expects of each
    outcome vector. *)

(** Reusable lane state for {!run_bitset}: per-lane register rows, event
    times and CCB rings backed by unboxed [Bigarray] slabs, plus one
    machine word per boolean engine field (sync bits, taint, outcomes)
    whose bit [i] tracks lane [i]. One arena serves any number of compiled
    blocks sequentially: it grows on demand and each run resets only the
    lanes and slices the block uses. Not thread-safe — use one per
    domain. *)
module Lanes : sig
  type t

  val create : unit -> t
end

val run_bitset :
  ?ccb_capacity:int ->
  ?cce_retire_width:int ->
  ?on_word:(int -> unit) ->
  t ->
  Lanes.t ->
  vectors:Scenario.t array ->
  Dual_engine.result array
(** [run_bitset ?ccb_capacity ?cce_retire_width t lanes ~vectors]
    simulates the whole outcome-vector set bit-parallel — up to
    [Sys.int_size] (63) vectors advance per machine word, each
    engine-state bit-field becoming one word over the lanes — and returns
    results in input order, each structurally equal to
    [Dual_engine.run ?ccb_capacity ?cce_retire_width sb ~reference ~live_in
    ~outcomes:vectors.(i)] for the block, reference and live-ins [t] was
    compiled from. The shape defaults are [Dual_engine.run]'s (unbounded
    CCB, retire width 1), and a retire width below 1 raises
    [Invalid_argument], as there. Sets larger than one word are
    chunked internally; a one-vector set is one lane of one word. Lanes
    whose timing diverges (a sync bit cleared early on a correct outcome,
    late via the CCE on a wrong one) fall out of lock-step safely: each
    lane carries its own instruction pointer and the issue stage groups
    the frontier per static cycle.

    The hot loop allocates nothing — lane state lives in preallocated
    [Bigarray] slabs — and the only per-call allocations are the result
    records and their lists, plus the small duplicate-collapsing table.

    Duplicate vectors are collapsed to one lane and share one result
    record. [on_word n] is called after each lane word runs, with the
    number of distinct vectors [n] it carried.

    If any vector deadlocks, [run_bitset] raises the [Dual_engine.Deadlock]
    a per-vector loop over [Dual_engine.run] would: the first deadlocking
    vector in input order, with the same message. *)
