(** Operations — the atoms packed into VLIW instructions.

    An operation is a single RISC-style action with one optional destination
    register and a list of source registers. After the value-speculation
    transform (library [vp_vspec]) each operation also carries a {!form}
    recording its role in the paper's extended ISA:

    - {b LdPred} operations fetch a predicted value from the value predictor
      and set a Synchronization-register bit;
    - {b check-prediction} operations re-execute the original (predicted)
      operation, compare against the prediction, clear the prediction's bit
      and — on a correct prediction — the bits of all operations that were
      speculated with it;
    - {b speculative} operations consume predicted values (directly or
      transitively) and set their own Synchronization-register bit;
    - {b non-speculative} operations require verified operands; the bits they
      must wait on are encoded on the enclosing VLIW instruction, not on the
      operation itself (matching the paper's instruction format). *)

(** Role of the operation in the extended ISA. [Normal] is the only form
    appearing in untransformed code. *)
type form =
  | Normal
  | Ldpred_of of { sync_bit : int; checked_by : int }
      (** Sets [sync_bit]; [checked_by] is the id of the check-prediction
          operation that will verify it. *)
  | Check of { pred_bit : int; spec_bits : int list }
      (** Clears [pred_bit] unconditionally on completion; clears every bit
          in [spec_bits] if the comparison succeeds. *)
  | Speculative of { sync_bit : int }
      (** Sets [sync_bit] on completion; a copy is sent to the Compensation
          Code Engine. *)
  | Non_speculative
      (** Must not issue until its (statically known) wait bits are clear. *)

type t = {
  id : int;  (** Position of the operation in its block (0-based). *)
  opcode : Opcode.t;
  dst : int option;  (** Destination register, if the opcode writes one. *)
  srcs : int list;  (** Source registers, length [Opcode.num_sources]. *)
  guard : (int * bool) option;
      (** Playdoh-style predication: [(p, polarity)] executes the operation
          only when register [p]'s truth value (non-zero) equals
          [polarity]; a predicated-off operation leaves all state
          unchanged. Guarded operations are produced by hyperblock
          formation ([Vp_region.Hyperblock]); one may be value-speculated
          only when its destination is a first write in its block, so that
          recovery can restore the captured old value if the operation
          turns out predicated off (see [Vp_vspec.Transform]). *)
  stream : int option;
      (** For loads: identifier of the run-time value stream the load reads,
          used by value profiling and by the execution engines. *)
  form : form;
}

val make :
  ?dst:int ->
  ?srcs:int list ->
  ?guard:int * bool ->
  ?stream:int ->
  id:int ->
  Opcode.t ->
  t
(** [make ~id opcode] builds a [Normal]-form operation, checking that the
    destination/source shape matches the opcode (a writing opcode needs
    [dst]; [srcs] must have the opcode's arity; loads should carry a
    [stream]) and that no register is negative. Raises [Invalid_argument]
    on shape errors. *)

val with_form : t -> form -> t
(** Same operation with a different ISA form. *)

val with_id : t -> int -> t

val is_load : t -> bool

val is_store : t -> bool

val is_branch : t -> bool

val writes : t -> int option
(** The destination register, if any. *)

val reads : t -> int list
(** The registers the operation depends on: the sources plus the guard
    register, if any. Dependence analysis uses this; the engines read
    operand {e values} from [srcs] and handle the guard separately. *)

val is_speculative : t -> bool
(** [true] for [Speculative _] forms. *)

val sets_sync_bit : t -> int option
(** The Synchronization-register bit this operation sets on completion
    ([Ldpred_of] and [Speculative] forms). *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Renders like ["3: r1 <- load [r9] (check b5; spec b6)"]. *)
