(** Sequential reference execution of a basic block.

    Executes the {e original} (untransformed) block one operation at a time
    in program order with fully correct values. This is simultaneously:

    - the semantic oracle: the dual-engine simulator's final architectural
      state must equal the reference's, whatever the misprediction pattern;
    - the source of "correct values" inside the engines (a check-prediction
      operation's computed result; the operand values the Compensation Code
      Engine re-executes with). *)

type t = {
  block : Vp_ir.Block.t;
  results : int array;
      (** per operation id: the value the operation writes (0 when it writes
          no register or was predicated off) *)
  operands : int list array;
      (** per operation id: the correct values of its source operands *)
  executed : bool array;
      (** per operation id: [false] iff the operation was predicated off *)
  final_regs : (int * int) list;
      (** final (register, value) pairs for every register the block reads
          or writes, ascending by register *)
  stores : (int * int) list;  (** (address, value) pairs in program order *)
}

val live_in : int -> int
(** The deterministic live-in register values every simulation uses
    ([live_in r = 1009 * r + 77]): the pipeline's references and compiled
    kernels, the examples and the tests. *)

val run :
  Vp_ir.Block.t -> load_values:(int -> int) -> live_in:(int -> int) -> t
(** [run block ~load_values ~live_in] executes the block. [load_values i]
    is the value the load with operation id [i] reads this execution (one
    dynamic value per static load, drawn from its stream by the caller);
    [live_in r] seeds register [r] when it is read before being written. *)
