(** Unboxed predictor kernels: the prediction fast lane.

    Direct-style implementations of every {!Predictor.kind} state
    machine, exposing an integer sentinel ({!no_prediction}) instead of
    [int option] and a single-pass driver that scores all requested
    predictors over one flat value arena. Semantically pinned to the
    closure-record reference predictors in [test/predictor_ref.ml]: for
    any kind and any value sequence free of [min_int], {!accuracies}
    equals [Predictor_ref.accuracy] over the corresponding
    [Predictor_ref.instantiate] (property-tested). *)

val no_prediction : int
(** Sentinel ([min_int]) returned by {!predict} when the predictor has no
    prediction. Arena values must never equal it. *)

type t
(** Mutable kernel state for one predictor instance. *)

val create : Predictor.kind -> t
(** Fresh state. Raises [Invalid_argument] on an FCM, DFCM or hybrid kind
    with order < 1 or table_bits outside [4, 24]. *)

val reset : t -> unit

val predict : t -> int
(** Current prediction, or {!no_prediction}. *)

val update : t -> int -> unit
(** Feed the actually observed value. *)

val hit_counts : kinds:Predictor.kind list -> int array -> off:int -> len:int -> int array
(** [hit_counts ~kinds values ~off ~len] plays [values.(off .. off+len-1)]
    through a fresh kernel per kind — all kinds in one pass — and returns
    the per-kind correct-prediction counts, in [kinds] order. Raises
    [Invalid_argument] if the range is out of bounds. *)

val accuracies : kinds:Predictor.kind list -> int array -> off:int -> len:int -> float array
(** [hit_counts] normalized by [len]; all zeros when [len = 0] (matching
    the reference predictors' accuracy on the empty list). *)

type pass
(** A reusable scoring pass: preallocated kernel states plus per-kind hit
    accumulators. [hit_counts] allocates fresh states per call — for an
    FCM kind that is a whole prediction table per profiled load; a pass
    pays that once and replays any number of value ranges with no
    per-run allocation. For the paper's profiling pair
    ([Stride; Fcm {order = 2; _}]) the run is a fused loop over an
    epoch-stamped FCM table, so the per-run reset is a counter bump
    rather than a table clear. *)

val make_pass : kinds:Predictor.kind list -> pass
(** Build a pass for [kinds], in order. Raises [Invalid_argument] on the
    same parameter ranges as {!create}. *)

val run_pass : pass -> int array -> off:int -> len:int -> unit
(** Score [values.(off .. off+len-1)] against every kind, resetting all
    state first; results are read back with {!pass_hit} / {!pass_rate}.
    Equals {!hit_counts} with the same kinds and range. The hot loop
    allocates no minor words. Raises [Invalid_argument] if the range is
    out of bounds. *)

val pass_size : pass -> int
(** Number of kinds the pass scores. *)

val pass_hit : pass -> int -> int
(** Hit count of kind [j] (in [make_pass] order) from the last
    {!run_pass}. Raises [Invalid_argument] if [j] is out of range. *)

val pass_rate : pass -> int -> float
(** {!pass_hit} normalized by the last run's [len]; [0.] when [len = 0]. *)

val seq_predict_train :
  t ->
  conf:Confidence.t ->
  use_confidence:bool ->
  int array ->
  len:int ->
  correct:Bytes.t ->
  unit
(** One VP-table entry's whole predict-and-train sequence in a single
    call: for each of [values.(0 .. len-1)] predict, gate on the
    confidence counter when [use_confidence], record the confidence
    hit/miss from the raw (ungated) prediction, train, and store ['\001']
    in [correct.(k)] iff a gated prediction was made and equalled the
    value (['\000'] otherwise). Touch [k] is exactly
    [Vp_table.predict_and_train] against a settled (non-aliasing) entry.
    The default hybrid stride + order-2 FCM kind runs as a fused loop
    with no variant dispatch and no allocation; other kinds fall back to
    the generic state machines. Raises [Invalid_argument] if [len]
    exceeds either buffer. *)
