(** Compile-once / run-many scenario kernel.

    [Dual_engine.run] is the oracle: it interprets a {!Vp_vspec.Spec_block}
    directly, building hashtable register files and per-cycle event queues
    on every call. Evaluating a block means running it under {e many}
    outcome vectors (enumerated scenarios plus Monte-Carlo draws), so
    everything that does not depend on the outcome vector — latencies,
    sync-bit ids, prediction-dependency counts, issue slots, wait masks,
    reference results — is recomputed wastefully.

    This module splits the work. {!compile} lowers a block once into flat
    immutable arrays; {!run_scenario} replays one outcome vector against the
    compiled form using a caller-owned {!Arena.t} of preallocated mutable
    buffers, recycled across runs with an epoch counter, so the
    per-scenario cost is array resets rather than allocation.

    Semantics are exactly those of [Dual_engine.run] without an observer:
    identical [result] records (checked structurally by the kernel
    equivalence test suite on random blocks and outcome vectors) and the
    same [Dual_engine.Deadlock] exception on livelock. *)

(** Reusable mutable scratch state. One arena serves any number of
    compiled blocks sequentially — {!run_scenario} grows it on demand and
    resets only the slices the block uses. Arenas are not thread-safe; use
    one per domain. *)
module Arena : sig
  type t

  val create : unit -> t
end

type t
(** A speculated block lowered to flat arrays, specialised to one
    (reference, live-in, CCB capacity, CCE retire width) configuration. *)

val compile :
  ?ccb_capacity:int ->
  ?cce_retire_width:int ->
  Vp_vspec.Spec_block.t ->
  reference:Reference.t ->
  live_in:(int -> int) ->
  t
(** [compile sb ~reference ~live_in] validates once what [Dual_engine.run]
    validates per call (retire width, reference/block agreement, latency
    positivity) and precomputes every outcome-independent quantity. Raises
    [Invalid_argument] exactly where the oracle would. *)

val num_predictions : t -> int
(** Number of predicted loads — the length {!run_scenario} expects of
    [outcomes]. *)

val run_scenario : t -> Arena.t -> outcomes:Scenario.t -> Dual_engine.result
(** [run_scenario t arena ~outcomes] simulates one scenario. Equivalent to
    [Dual_engine.run sb ~reference ~live_in ~outcomes] with the parameters
    captured at compile time; the only per-run allocation is the [result]
    record and its lists. Raises [Dual_engine.Deadlock] as the oracle
    does. *)

(** Reusable lane state for {!run_bitset}: per-lane register rows, event
    times and CCB rings backed by unboxed [Bigarray] slabs, plus one
    machine word per boolean engine field (sync bits, taint, outcomes)
    whose bit [i] tracks lane [i]. Grown on demand like {!Arena.t}; not
    thread-safe — use one per domain. *)
module Lanes : sig
  type t

  val create : unit -> t
end

val run_bitset :
  t -> Lanes.t -> vectors:Scenario.t array -> Dual_engine.result array
(** [run_bitset t lanes ~vectors] simulates the whole outcome-vector set
    bit-parallel — up to [Sys.int_size] (63) vectors advance per machine
    word, each engine-state bit-field becoming one word over the lanes —
    and returns results in input order, each structurally equal to
    [run_scenario t arena ~outcomes:vectors.(i)]. Sets larger than one
    word are chunked internally. Lanes whose timing diverges (a sync bit
    cleared early on a correct outcome, late via the CCE on a wrong one)
    fall out of lock-step safely: each lane carries its own instruction
    pointer and the issue stage groups the frontier per static cycle.

    The hot loop allocates nothing — lane state lives in preallocated
    [Bigarray] slabs — and the only per-call allocations are the result
    records and their lists.

    Duplicate vectors are collapsed to one lane and share one result
    record; sets that collapse to two or fewer distinct vectors run
    through {!run_scenario} instead, which is cheaper than setting up a
    lane word.

    If any vector deadlocks, the affected lane is replayed through the
    scalar engine so the raised [Dual_engine.Deadlock] is byte-identical
    to what a per-vector loop over {!run_scenario} would raise, first
    vector in input order. *)

type bitset_stats = { words : int; vectors : int; fallbacks : int }
(** Process-wide occupancy counters for {!run_bitset}: lane words run,
    vectors they carried, and deadlock-driven scalar replays. *)

val bitset_stats : unit -> bitset_stats
