(** Hardware-mode whole-program simulation.

    The paper's evaluation (and this repository's tables) is
    {e profile-driven}: per-block misprediction scenarios are weighted by
    profiled rates. The actual machine of Figure 5 has a run-time value
    predictor — "caching values and prediction confidences at run-time" —
    whose accuracy on a given load need not match its profile. This module
    closes that loop: it executes a dynamic block trace end to end with one
    persistent hardware value-prediction table ([Vp_predict.Vp_table])
    supplying every [LdPred], simulating each block execution on the
    dual-engine model with the outcomes the table actually produced.

    Comparing the resulting speedup against the profile-predicted speedup
    validates the profiling methodology (they should agree closely, since
    the profile and the table see the same value streams) and exposes the
    hardware effects the profile cannot see: cold-start misses, table
    aliasing, and confidence warm-up. *)

type result = {
  executions : int;  (** dynamic block executions simulated *)
  cycles : int;  (** total cycles with value prediction *)
  original_cycles : int;  (** total cycles without value prediction *)
  speedup : float;
  predictions : int;  (** dynamic [LdPred] executions *)
  mispredictions : int;
  accuracy : float;  (** run-time prediction accuracy of the table *)
  profile_speedup : float;
      (** the profile-driven expectation over the same blocks, for
          comparison *)
}

val pc_of : block:int -> op:int -> int
(** The hardware PC of static load [op] in block [block]: the block index
    spread across 256-slot frames. Raises [Invalid_argument] when [op] is
    outside [0, 256) — such an id would alias a neighbouring block's
    frame. *)

val run :
  ?executions:int -> ?table:Vp_predict.Vp_table.t -> Pipeline.t -> result
(** [run pipeline] replays [executions] (default 5000) block executions
    drawn proportionally to the profiled frequencies, deterministic in the
    pipeline's seed. [table] defaults to a pooled 1024-entry hybrid
    stride/FCM table without confidence gating, [Vp_table.reset] between
    runs — observationally a fresh table, without re-creating its
    kernels.

    The run is phased: the schedule is pre-drawn (it is a pure function
    of seed and block weights), every VP-table slot's predict-and-train
    sequence runs as one unboxed kernel call over the workload's stream
    arenas, and the schedule is then replayed over the precomputed
    outcome bits, calling the compiled engine ([Vp_engine.Compiled],
    shared with the pipeline's scenario batches via {!Spec_unit}) only
    for outcome masks missing from the per-block memo (sound because the
    engine's completion times depend on the outcomes, never on the
    mispredicted values). Results and the final [table] state equal a
    per-execution loop with one [Vp_table.predict_and_train] per
    predicted load and one [Dual_engine.run] per speculated execution
    (the test oracle in [test/trace_sim_ref.ml]).

    Per-pipeline simulation state (compiled blocks, stream/PC maps, the
    mask memos) persists across runs in a registry, a {!Vp_util.Memo}
    keyed physically on the pipeline and bounded at 64 pipelines: it is a
    pure function of the pipeline, so reuse changes how often the engine
    replays, never the result. Runs on the same pipeline serialize on
    that state's lock. *)

type stats = {
  runs : int;  (** calls to {!run} *)
  memo_hits : int;  (** block executions served from the mask memo *)
  engine_replays : int;  (** block executions that ran the engine *)
  alias_evictions : int;  (** tagged VP-table evictions across runs *)
}

val stats : unit -> stats
(** Process-wide counters since start (or {!clear_stats}). *)

val clear_stats : unit -> unit
(** Zero {!stats} (tests, benchmarks). *)

val telemetry_json : unit -> string
(** {!stats} as a JSON object: the [trace_sim] section of the
    [--telemetry] summary. *)

val render : ?format:[ `Ascii | `Csv ] -> (string * result) list -> string
(** Table of per-benchmark results: measured vs profile-predicted, aligned
    (the default) or as CSV. *)
