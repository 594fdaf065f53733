(** Dependence graphs over basic blocks.

    Edges connect earlier operations to later ones (program order is the
    reference order, hence already topological). Edge kinds and delays
    follow the conservative model the paper assumes for VLIW compilation:

    - [Flow] (read-after-write): delay = producer latency — the consumer may
      issue once the producer's result is available;
    - [Anti] (write-after-read): delay 0 — registers are read at issue, so
      the writer may issue in the same cycle as the reader;
    - [Output] (write-after-write): delay [max 1 (lat src - lat dst + 1)] so
      the later write completes last;
    - [Mem]: conservative serialization between memory operations
      (store→load, store→store, load→store) with the producer's latency as
      delay for stores and 1 for loads, since no memory disambiguation is
      performed ("conservatively computed data dependencies, especially for
      memory accesses");
    - [Control]: a delay-0 edge from every operation to the block's final
      branch, pinning the branch to the last issued VLIW instruction;
    - [Verify]: a synchronization edge added by the value-speculation
      transform from a check-prediction operation to a non-speculative
      consumer, forcing the consumer to issue only after the check
      completes (the static counterpart of a Synchronization-register
      stall that is guaranteed to resolve). *)

type kind = Flow | Anti | Output | Mem | Control | Verify

type edge = { src : int; dst : int; kind : kind; delay : int }

type t

val build : ?extra:edge list -> latency:(Operation.t -> int) -> Block.t -> t
(** Construct the graph of a block under the given latency model. [extra]
    edges (typically [Verify]) are merged in after the block's own edges;
    they must go forward ([src < dst]) and duplicates of existing
    (src, dst, kind) triples are dropped, so the first edge added for a
    triple keeps its delay.

    Edge order is part of the contract: operations are visited in program
    order, each visit adds its incoming edges (per register read: flow;
    then output and anti for the register written, anti newest reader
    first; then memory; then control), and the [extra] edges follow in
    list order. Every added edge is pushed on the front of its
    destination's {!preds} and its source's {!succs} list, so both lists
    are newest first. {!critical_path} breaks ties by that order, and the
    value-speculation transform's load selection depends on it.

    Registers are numbered densely once per build, in order of first
    mention, so the per-register tables are sized by the number of
    operands, never by the largest register number. Raises
    [Invalid_argument] on an [extra] edge that does not go forward inside
    the block. *)

val with_block : t -> Block.t -> t
(** [with_block t block] is [t] describing [block] instead, with the same
    edges and latencies: the graph of a block that differs only in
    operation forms (forms create no dependences), without rebuilding it.
    The latencies are kept, so the latency model [t] was built with must
    not depend on forms ([Vp_machine.Descr.latency] reads only the
    opcode). Raises [Invalid_argument] unless [block] has the same size and
    every operation keeps its opcode, [dst], [srcs] and [guard]. *)

val block : t -> Block.t

val size : t -> int

val latency : t -> int -> int
(** Latency of operation [i] under the model the graph was built with. *)

val preds : t -> int -> edge list
(** Incoming edges of an operation. *)

val succs : t -> int -> edge list
(** Outgoing edges of an operation. *)

val edges : t -> edge list
(** All edges. *)

val earliest : t -> int array
(** ASAP issue cycle of each operation assuming unlimited resources. *)

val priority : t -> int array
(** Scheduling priority: the longest delay-weighted path from the operation
    to any sink, {e including} the operation's own latency. The classic
    critical-path list-scheduling priority. *)

val critical_path_length : t -> int
(** Length in cycles of the longest path through the block, i.e. the
    resource-unconstrained schedule length. *)

val critical_path : t -> int list
(** One maximal path (operation ids in program order) realizing
    [critical_path_length]. *)

val flow_dependents : t -> int -> int list
(** Operations transitively reachable from [i] through [Flow] edges,
    ascending — the candidates for value speculation when [i]'s result is
    predicted. *)

val flow_sources : t -> int -> int list
(** Transitive [Flow] producers feeding operation [i], ascending. *)

val pp : Format.formatter -> t -> unit

val to_dot : ?highlight:int list -> t -> string
(** Graphviz rendering of the dependence graph: one node per operation
    (labelled with its pretty-printed form), solid edges for flow
    dependences (labelled with their delay), dashed for anti/output, dotted
    for memory/control, bold for verify edges. [highlight] nodes (e.g. the
    critical path) are filled. Pipe into [dot -Tsvg]. *)
