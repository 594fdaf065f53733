(** Cycle-by-cycle observation of the dual-engine machine — the paper's
    Figure 7, as data.

    Figure 7 walks one execution of the worked example showing, for every
    cycle, the contents of the Compensation Code Buffer and the Operand
    Value Buffer with each value's type and state. The paper's notation
    (Tables 1/2): a value is {e P} (predicted by [LdPred]) or {e S}
    (speculatively computed); its state is {e PN} (prediction not verified),
    {e RN} (recomputation not known to be needed yet), {e C} (correct), or
    {e R} (recomputed / corrected after a misprediction).

    Pass an {!observer} to [Dual_engine.run] to receive one {!snapshot} per
    simulated cycle; {!collector} accumulates them, and {!pp} renders the
    Figure-7-style table. *)

(** OVB value state, the paper's Table 2 notation. *)
type ovb_state =
  | PN  (** prediction not verified *)
  | RN  (** speculative; recomputation need not known yet *)
  | C  (** correct *)
  | R  (** mispredicted; recomputed/corrected *)

type ovb_entry = {
  label : string;  (** ["v8"] — the register holding the value *)
  kind : [ `Predicted | `Speculative ];  (** P or S *)
  state : ovb_state;
}

(** One Compensation Code Engine head action (several per cycle when the
    retire width exceeds 1; empty when the CCB is empty or freshly filled). *)
type cce_action =
  | Cce_stalled of int  (** head operation waiting for operand states *)
  | Cce_flushed of int  (** head discarded: all operands correct *)
  | Cce_recompute of int  (** head re-issued with correct operands *)

type snapshot = {
  cycle : int;
  issued : int list;  (** transformed ids issued by the VLIW engine *)
  vliw_stalled : bool;  (** the next instruction could not issue *)
  sync_bits : int list;  (** set Synchronization-register bits *)
  ccb : int list;  (** CCB contents, head first *)
  ovb : ovb_entry list;  (** OVB contents in entry order *)
  cce : cce_action list;  (** this cycle's CCE head actions *)
}

type observer = snapshot -> unit

val collector : unit -> observer * (unit -> snapshot list)
(** [let observer, trace = collector ()] — pass [observer] to the engine,
    call [trace ()] afterwards for the snapshots in cycle order. *)

val pp : Format.formatter -> snapshot list -> unit
(** The full Figure-7-style cycle table. *)
