(** Job descriptions and outcomes.

    A job is a keyed unit of work. The key serves three purposes:

    + it is the content address under which {!Store} caches the result;
    + it deterministically seeds the job's private RNG ({!derived_seed}),
      so any randomness a job draws depends only on {e what} the job is,
      never on submission order or on which worker domain picks it up;
    + it identifies the job in diagnostics and telemetry.

    Jobs must be self-contained: the [run] function may not touch shared
    mutable state, because the {!Pool} executes jobs concurrently across
    domains. All the experiment-layer jobs satisfy this by construction —
    each derives everything from its own [(config, model)] pair. *)

type ctx = {
  seed : int;  (** {!derived_seed} of the job key *)
  rng : Vp_util.Rng.t;
      (** private RNG seeded from the key — fresh per execution *)
}

type 'a spec = {
  key : string;  (** content-address; stable across runs *)
  label : string;  (** short human-readable name for telemetry *)
  run : ctx -> 'a;
}

type 'a outcome =
  | Done of 'a
  | Failed of string  (** the job raised; payload is the printed exception *)

val make : ?label:string -> key:string -> (ctx -> 'a) -> 'a spec
(** [label] defaults to a prefix of [key]. *)

val derived_seed : key:string -> int
(** Non-negative seed derived from the key alone (FNV-1a folded through
    SplitMix64 finalization). Stable across processes and OCaml versions. *)

val ctx_of : key:string -> ctx
(** Build the execution context the pool passes to [run]. *)

val outcome_ok : 'a outcome -> 'a option
val outcome_error : 'a outcome -> string option
(** [None] for [Done]; the diagnostic otherwise. *)
