(** Value-predictor families.

    A predictor instance tracks one static operation (one "table entry" in
    hardware terms, one profiled load in compiler terms). Before each
    dynamic execution it is asked for a prediction, then told the actual
    value, and updates its state. A predictor with no basis for a
    prediction yet (a cold entry) makes none, which counts as a
    misprediction, matching profile-rate semantics.

    The paper profiles every candidate load with {e stride} and {e FCM}
    prediction and keeps the higher of the two rates (Section 3). {!kind}
    names those two algorithms, the baseline last-value predictor, a
    differential FCM and the max-of-both hybrid; {!Kernel} implements
    them. *)

(** Predictor families selectable from configurations. *)
type kind =
  | Last_value
      (** Predict the previous value (Lipasti & Shen). *)
  | Stride
      (** 2-delta stride: predict [last + confirmed stride], where a new
          stride is confirmed only after it repeats (Eickemeyer &
          Vassiliadis). *)
  | Fcm of { order : int; table_bits : int }
      (** Order-[order] finite context method (Sazeides & Smith) with a
          [2^table_bits]-entry second-level table mapping a hash of the
          last [order] values to the value that followed them.
          [order >= 1], [table_bits] in [\[4, 24\]]. *)
  | Dfcm of { order : int; table_bits : int }
      (** Differential FCM (Goeman, Vander Zanden & De Bosschere, HPCA
          2001): FCM over strides, predicting [last + stride]. An extension
          post-dating the paper, for the predictor-sensitivity ablation.
          Same parameter ranges as [Fcm]. *)
  | Hybrid_stride_fcm of { order : int; table_bits : int }
      (** Runs stride and FCM side by side and predicts with whichever has
          the higher running accuracy (stride wins ties), as in the paper's
          profiling step. *)

val kind_name : kind -> string

val pp_kind : Format.formatter -> kind -> unit
