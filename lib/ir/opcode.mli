(** Operation codes of the VLIW intermediate representation.

    The set mirrors what the paper's examples and the Playdoh ISA need:
    integer ALU operations of unit latency, multi-cycle multiply/divide,
    memory accesses, floating-point arithmetic, compares and branches — plus
    the two opcodes the paper adds to the ISA:

    - [Ld_pred] loads a predicted value from the value predictor into a
      register (executes on an integer unit, like a move);
    - a load in {e check-prediction} form is represented by the ordinary
      [Load] opcode with a flag on the operation (see {!Operation.form}),
      because the paper maps it onto a memory unit "with the extra semantics
      of performing a comparison check". *)

type t =
  | Add
  | Sub
  | Mul
  | Div
  | And
  | Or
  | Xor
  | Shift
  | Move
  | Cmp  (** integer compare producing a predicate register *)
  | Load
  | Store
  | Fadd
  | Fmul
  | Fdiv
  | Branch  (** conditional branch consuming a predicate register *)
  | Ld_pred  (** ISA extension: fetch a predicted value *)

val all : t list
(** Every opcode, for exhaustive iteration in tests. *)

val index : t -> int
(** The opcode's position in {!all}, in O(1): the index of per-opcode
    tables and the binary encoding's opcode field. *)

val is_memory : t -> bool
(** Loads and stores (the operations that serialize conservatively). *)

val is_load : t -> bool

val is_store : t -> bool

val is_branch : t -> bool

val has_side_effect : t -> bool
(** Stores and branches: operations that must never be value-speculated
    because their effect cannot be undone by re-execution. *)

val writes_register : t -> bool
(** Whether the opcode produces a register result. *)

val num_sources : t -> int
(** Source-operand arity (memory operations count their address operand;
    stores also carry the stored value). *)

val mnemonic : t -> string

val pp : Format.formatter -> t -> unit

val equal : t -> t -> bool
