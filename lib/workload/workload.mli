(** A generated benchmark instance: program, block frequencies, and the
    value streams behind every load.

    [generate] expands a {!Spec_model.t} into a concrete {!Vp_ir.Program.t}
    whose per-block execution counts follow the model's Zipf skew (hot-block
    ranks are assigned randomly so hotness is uncorrelated with block size),
    and records the value-stream shape of every load. Everything is
    deterministic in [(model, seed)].

    Stream instances are re-created on demand: profiling and simulation each
    call {!stream} and replay the same deterministic sequence, which mirrors
    running the real program twice (once under the profiler, once under the
    simulator). *)

type t

val generate : ?seed:int -> Spec_model.t -> t
(** Default [seed] 42. Memoized: [t] is immutable and pure in
    [(seed, model)], so repeat generations — one per sweep point in a
    suite — return one shared instance (keyed on the seed and the physical
    model, in a bounded {!Vp_util.Memo}). *)

val model : t -> Spec_model.t

val seed : t -> int

val program : t -> Vp_ir.Program.t

val num_streams : t -> int

val shape : t -> int -> Value_stream.shape
(** Shape of stream [id]. Raises [Invalid_argument] on unknown ids. *)

val stream : t -> int -> Value_stream.t
(** Fresh replayable instance of stream [id], deterministically seeded from
    [(seed, id)]. *)

val arena : t -> int -> min_len:int -> int array
(** Flat materialization of stream [id]: the returned array holds the
    stream's first values at indices [0 .. min_len-1] (identical to what
    {!stream} followed by [Value_stream.take] would produce). Entries past
    [min_len] are unspecified. Arenas are cached globally per
    [(seed, id, shape)], the inputs that determine {!stream}'s values, and
    grown on demand, so repeated calls share one
    buffer — but a later call with a larger [min_len] may return a
    different (grown) array, so callers must not retain the buffer across
    calls. Thread-safe. Raises [Invalid_argument] on unknown ids. *)

val pp_summary : Format.formatter -> t -> unit
(** One-paragraph description: blocks, operations, loads, stream mix. *)
