(** Machine descriptions: issue width, functional-unit mix, latencies.

    A description bounds what one VLIW instruction may contain — at most
    [issue_width] operations in total, and per unit class at most as many
    operations as the machine has units of that class — and assigns each
    operation a latency. All units are fully pipelined (a unit accepts a new
    operation every cycle), which matches the Playdoh model the paper uses.

    The [playdoh] presets reproduce the two machines of the evaluation
    (issue widths 4 and 8; Section 3 and Table 4) plus narrower/wider
    variants used by the width-sweep example. The [example] preset encodes
    the latencies of the Section 2.1 worked example (add/move/mul unit
    latency, loads of latency 3). *)

type t

val make :
  name:string ->
  units:(Unit_class.t * int) list ->
  latency:(Vp_ir.Opcode.t -> int) ->
  ?issue_width:int ->
  unit ->
  t
(** [make ~name ~units ~latency ()] builds a description. Unit counts must
    be positive; missing classes default to 0 units. [issue_width] defaults
    to the sum of unit counts. All latencies must be ≥ 1 (checked for every
    opcode eagerly). *)

val name : t -> string

val issue_width : t -> int

val units : t -> Unit_class.t -> int
(** Number of units of the class. *)

val latency : t -> Vp_ir.Operation.t -> int
(** Operation latency. Check-prediction loads keep the full load latency
    (the comparison is folded into the final cycle); [Ld_pred] costs the
    latency of its opcode entry (1 in all presets). *)

val opcode_latency : t -> Vp_ir.Opcode.t -> int

val default_latency : Vp_ir.Opcode.t -> int
(** Playdoh-like table: unit-latency integer ALU ops, 2-cycle multiply,
    8-cycle divide, 3-cycle loads, 1-cycle stores, 2/3/8-cycle FP
    add/multiply/divide, 1-cycle branches and [Ld_pred]. *)

val example_latency : Vp_ir.Opcode.t -> int
(** The worked example's table: everything unit latency except loads (3). *)

val widths : int list
(** The widths {!playdoh} has presets for, ascending: [[2; 4; 8; 16]]. *)

val check_width : int -> (int, string) result
(** [Ok width] if {!playdoh} models it, else an error message naming the
    supported widths. Front ends validate user-supplied widths with it,
    so a bad width is refused at the door instead of failing every job. *)

val playdoh : width:int -> t
(** The scaled Playdoh-style preset. Supported widths and their unit mixes,
    written integer/memory/float/branch: 2 → 1/1/1/1, 4 → 2/1/1/1 (the
    paper's base machine), 8 → 4/2/2/1 (the paper's wide machine),
    16 → 8/4/3/1. The issue width equals the nominal width, so on the
    2-wide machine at most two of the four units fire per cycle. Uses
    [default_latency]. Raises [Invalid_argument] with {!check_width}'s
    message for other widths. *)

val example_machine : t
(** 4-wide machine with [example_latency], used to reproduce the paper's
    Figures 2/3 schedules. *)

val fits :
  t -> total:int -> per_class:(Unit_class.t -> int) -> Vp_ir.Operation.t -> bool
(** [fits t ~total ~per_class op] says whether one more operation [op] can
    join a VLIW instruction that already contains [total] operations, of
    which [per_class c] belong to class [c]. *)

val pp : Format.formatter -> t -> unit
