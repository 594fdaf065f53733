(** Deterministic pseudo-random number generation.

    Every source of randomness in the repository flows through this module so
    that experiments are reproducible bit-for-bit from a configuration seed.
    The generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): tiny,
    fast, and with a [split] operation that derives statistically independent
    child streams, which we use to give every benchmark / block / load its
    own stream without coordination. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. Two
    generators created from the same seed produce identical streams. *)

val copy : t -> t
(** [copy t] duplicates the state; the copy evolves independently. *)

val split : t -> t
(** [split t] derives a child generator from [t], advancing [t] once. The
    child's stream is independent of the parent's subsequent output. *)

val split_named : t -> string -> t
(** [split_named t name] derives a child stream keyed by [name] without
    advancing [t]. Equal names yield equal children; use it to give stable
    per-entity streams (e.g. one per benchmark). *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] (clamped to [0, 1]). *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

type sampler
(** A weight vector prepared for repeated draws: its cumulative sums,
    built once. *)

val sampler : float array -> sampler
(** [sampler w] prepares [w] for {!sample}. Weights must be non-negative
    with a positive sum. *)

val sample : t -> sampler -> int
(** [sample t s] picks index [i] with probability proportional to
    [w.(i)] in O(log n): the same index as a linear scan of [w], from the
    same single draw of [t]. *)

val weighted_index : t -> float array -> int
(** [weighted_index t w] is [sample t (sampler w)]; prepare a {!sampler}
    when drawing repeatedly from one weight vector. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val geometric : t -> float -> int
(** [geometric t p] is the number of failures before the first success of a
    Bernoulli([p]) sequence, i.e. a sample of the geometric distribution on
    {0, 1, ...}. [p] must satisfy [0 < p <= 1]. *)

val zipf : t -> int -> float -> int
(** [zipf t n s] samples from a Zipf distribution over ranks [0..n-1] with
    exponent [s] (larger [s] = more skew), by inversion on the cumulative
    weights. Used for block execution frequencies. *)
