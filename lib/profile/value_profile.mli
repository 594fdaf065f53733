(** Value profiling of workloads.

    Reproduces the paper's profiling step: "These blocks were initially
    value profiled, based on stride and FCM prediction. The final value
    prediction rate for each operation, executed in the simulation runs,
    was chosen to be the higher value out of these two prediction rates."

    Each static load executes once per dynamic execution of its block, so
    its profiled value sequence is its stream replayed for the block's
    execution count (capped at [max_samples] for tractability — the rate
    converges long before that). *)

type load_profile = {
  op_id : int;  (** id of the load within its block *)
  stream : int;  (** value-stream id *)
  samples : int;  (** number of profiled dynamic executions *)
  stride_rate : float;  (** stride-predictor accuracy over the samples *)
  fcm_rate : float;  (** FCM accuracy over the samples *)
  rate : float;  (** max of the two — the load's value prediction rate *)
}

type block_profile = {
  block_index : int;
  executions : int;  (** profiled execution count of the block *)
  loads : load_profile list;  (** one entry per load, program order *)
}

type t

val profile :
  ?program:Vp_ir.Program.t ->
  ?predictors:Vp_predict.Predictor.kind list ->
  ?rates:
    (stream:int ->
    samples:int ->
    kinds:Vp_predict.Predictor.kind list ->
    float array) ->
  ?max_samples:int ->
  ?fcm_order:int ->
  ?fcm_table_bits:int ->
  Vp_workload.Workload.t ->
  t
(** Defaults: at most 2000 samples per load, the paper's predictor pair
    (stride + order-2 FCM with a 4096-entry table), rate = max over the
    pair. [predictors] substitutes any predictor set (the rate is the max
    over the set; [stride_rate]/[fcm_rate] report 0 for absent kinds) —
    used by the predictor-sensitivity ablation. [program] overrides the
    workload's own program — used by the region extension, whose
    superblocks reference the same value streams through different
    blocks. [rates] overrides the per-stream accuracy computation (it must
    return one accuracy per kind, in [kinds] order) — used by the pipeline
    to route it through the {!Spec_unit} memo. *)

val stream_rates :
  Vp_workload.Workload.t ->
  stream:int ->
  samples:int ->
  kinds:Vp_predict.Predictor.kind list ->
  float array
(** Per-kind prediction accuracy of stream [stream]'s first [samples]
    values, computed in a single unboxed-kernel pass over the workload's
    stream arena. Equal to the reference predictors' accuracy
    ([test/predictor_ref.ml]) of each kind over [Value_stream.take] of the
    same prefix. *)

val blocks : t -> block_profile array

val block : t -> int -> block_profile

val rate : t -> block:int -> op:int -> float option
(** Prediction rate of the load [op] in [block]; [None] if that operation is
    not a profiled load. *)

val mean_rate : t -> float
(** Mean prediction rate over all loads, weighted by block execution count —
    a summary statistic for reports. *)

val pp : Format.formatter -> t -> unit
