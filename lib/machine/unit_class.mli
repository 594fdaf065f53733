(** Functional-unit classes of the VLIW machine.

    The paper's experiments run on HPL Playdoh-style machine descriptions
    with integer, floating-point, memory and branch units. The two new
    opcodes need no extra units: "the check prediction operation ... can be
    made to execute on a memory unit with the extra semantics of performing
    a comparison check. Also the LdPred operation, being similar to a move
    operation, can utilize an integer functional unit". *)

type t = Integer | Memory | Float | Branch

val all : t list

val of_opcode : Vp_ir.Opcode.t -> t
(** Unit class an opcode executes on. [Ld_pred] maps to [Integer]; loads in
    check-prediction form still map to [Memory] because the opcode is the
    original load. *)

val count : int
(** Number of unit classes. *)

val index : t -> int
(** Position of a class in {!all}: [0 .. count - 1], for per-class tables. *)

val name : t -> string

val pp : Format.formatter -> t -> unit

val equal : t -> t -> bool
