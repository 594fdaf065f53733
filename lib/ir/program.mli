(** Programs: weighted collections of basic blocks.

    The paper's evaluation works on profiled code: every benchmark is a set
    of basic blocks together with the frequency of execution of each block
    ("the generated code was also profiled to determine the frequency of
    execution of each block"). A [Program.t] captures exactly that — the
    static code plus per-block dynamic execution counts. *)

type weighted_block = { block : Block.t; count : int }
(** A block and the number of times it executes in the profiled run. *)

type t

val create : name:string -> weighted_block list -> t
(** Raises [Invalid_argument] on an empty block list or negative counts. *)

val name : t -> string

val blocks : t -> weighted_block array
(** Fresh array of the blocks in declaration order. *)

val num_blocks : t -> int

val nth : t -> int -> weighted_block

val total_operations : t -> int
(** Static operation count over all blocks. *)

val total_dynamic_operations : t -> int
(** Operation count weighted by execution frequency. *)

val pp : Format.formatter -> t -> unit
