(** Run-time value sequences for load operations.

    The paper profiles the values that each static load produces across its
    dynamic executions (SPEC 95 runs). We cannot redistribute SPEC, so every
    load in a synthetic benchmark is bound to a {e value stream} whose shape
    is drawn from the benchmark's predictability mix. The shapes span the
    spectrum the value-prediction literature reports:

    - [Constant]: the same value every time (perfectly stride-predictable,
      stride 0) — e.g. a loop-invariant global;
    - [Strided]: arithmetic sequence — array walks, induction variables;
    - [Periodic]: a short repeating pattern — predictable by FCM but not by
      stride prediction (unless the period is 1);
    - [Noisy_periodic]: a repeating pattern where each occurrence is
      replaced by a fresh random value with probability [noise] — an FCM
      rate of roughly [1 - noise], the tunable mid-predictability band the
      benchmark mixes use to model loads near the 65% threshold;
    - [Mostly_strided]: strided with occasional random jumps — array walks
      that rewind, records with outliers; partially predictable;
    - [Pointer_chain]: a fixed random permutation cycle — linked-list
      traversal; FCM learns it after one lap, stride never does;
    - [Random]: fresh uniform values — effectively unpredictable.

    Streams are deterministic given an [Rng.t], so profiling and simulation
    see the same sequence when seeded identically. *)

type shape =
  | Constant of int
  | Strided of { base : int; stride : int }
  | Periodic of { period : int }
  | Noisy_periodic of { period : int; noise : float }
  | Mostly_strided of { base : int; stride : int; jump_probability : float }
  | Pointer_chain of { nodes : int }
  | Random of { range : int }

type t

val create : Vp_util.Rng.t -> shape -> t
(** Instantiate a stream. The generator seeds any randomized structure
    (periodic patterns, chain permutations, jumps). *)

val shape : t -> shape

val next : t -> int
(** The next dynamic value. *)

val take : t -> int -> int list
(** [take t n] draws the next [n] values. *)

val shape_name : shape -> string
