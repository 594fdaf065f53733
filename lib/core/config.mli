(** Experiment configuration: machine, policy, simulation parameters.

    One record drives the whole pipeline so that every table and figure is a
    pure function of [(config, benchmark model)]. The defaults reproduce the
    paper's setup: a 4-wide Playdoh-style machine, the 65% profile
    threshold, and the cache/branch parameters used by the recovery-scheme
    comparison. *)

type t = {
  width : int;  (** machine issue width (2, 4, 8 or 16) *)
  policy : Vp_vspec.Policy.t;
  seed : int;  (** master seed for workload generation and sampling *)
  max_enumerated_predictions : int;
      (** scenario evaluation enumerates all outcome vectors when a block
          has at most this many predictions (2^n simulator runs) *)
  monte_carlo_draws : int;
      (** sampled outcome vectors for blocks above the enumeration cap *)
  ccb_capacity : int option;
      (** Compensation Code Buffer size; [None] = unbounded *)
  cce_retire_width : int;
      (** CCB head retirements per cycle; 1 is the paper's engine *)
  branch_penalty : int;  (** per control transfer, static-recovery scheme *)
  icache_bytes : int;
  icache_line_bytes : int;
  icache_ways : int;
  miss_penalty : int;  (** cycles per instruction-cache miss *)
  trace_length : int;  (** dynamic block executions in the cache trace *)
  charge_cce_drain : bool;
      (** how a block's effective length is accounted: [false] (default)
          charges the VLIW-retire time — compensation work still draining
          in the CCE overlaps the next block, the paper's parallel-recovery
          view; [true] charges until the CCE has fully drained, the
          conservative bound *)
  profile_predictors : Vp_predict.Predictor.kind list option;
      (** predictor set for value profiling; [None] (default) is the
          paper's stride + FCM pair. The predictor-sensitivity ablation
          substitutes other sets. *)
}

val default : t
(** 4-wide machine, default policy, seed 42, enumerate up to 6 predictions,
    64 Monte-Carlo draws, unbounded CCB, branch penalty 2, 16 KiB 2-way
    cache with 32-byte lines, 8-cycle miss penalty, 20000-execution
    trace, VLIW-retire accounting. *)

val make : width:int -> seed:int -> threshold:float -> t
(** {!default} with the three knobs every front end takes — the CLI's
    [--width], [--seed] and [--threshold], a serve request's core
    [config] fields. Served bytes equal CLI bytes because both build
    their configuration here. *)

val effective_cycles : t -> Vp_engine.Dual_engine.result -> int
(** The block-latency reading selected by [charge_cce_drain]. *)

val with_width : int -> t -> t

val machine : t -> Vp_machine.Descr.t
(** The Playdoh preset for the configured width. *)

val icache : t -> Vp_cache.Icache.t
(** Fresh instruction cache with the configured geometry. *)
