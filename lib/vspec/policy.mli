(** Speculation policy: which loads to predict and how far to speculate.

    The paper's policy (Section 3): predict loads that lie on the block's
    longest critical path and whose profiled value-prediction rate meets a
    threshold ("the threshold of load prediction (from value profile) was
    kept at a fairly low percentage of 65%"), then speculate the operations
    data-dependent on them. Hardware limits bound the aggressiveness: the
    Synchronization register has a fixed number of bits, so a block cannot
    hold more predicted values than the register has bits. *)

type t = {
  threshold : float;
      (** Minimum profiled prediction rate for a load to be predicted.
          Paper value: 0.65. *)
  max_predictions : int;
      (** Maximum predicted loads per block (ties broken towards loads with
          higher scheduling priority, i.e. deeper dependent chains). *)
  max_sync_bits : int;
      (** Width of the Synchronization register: total bits available for
          LdPred values plus speculated values in one block. Speculation of
          a load is abandoned if its bit demand does not fit. *)
  min_dependents : int;
      (** A load is only worth predicting if at least this many operations
          can be speculated on it (paper's examples use 1+). *)
  critical_path_only : bool;
      (** Restrict candidate loads to the critical path (the paper's rule).
          [false] considers every load meeting the threshold. *)
  non_speculative : int list;
      (** Ids of operations that must not be speculated even when they
          depend on a predicted load (side-effecting operations are always
          excluded regardless). The paper's worked example keeps two
          dependents non-speculative by choice; the presets veto
          nothing. *)
}

val default : t
(** threshold 0.65, max 4 predictions, 32 sync bits, ≥ 1 dependent,
    critical-path only, no vetoed operation. *)

val aggressive : t
(** No critical-path restriction, 8 predictions, 64 bits — used by the
    recovery-scheme comparison to stress compensation handling, mirroring
    the paper's "aggressive prediction mechanisms" discussion. *)

val pp : Format.formatter -> t -> unit
