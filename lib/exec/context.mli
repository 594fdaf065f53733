(** The execution context the experiment layer threads through: how many
    worker domains, which result cache (if any), and where telemetry
    goes.

    {!map} is the one orchestration entry point: it wraps every job with a
    {!Store} lookup (hit → the cached value, no recomputation; miss → run
    the job, then cache), submits the batch to the {!Pool} and returns the
    outcomes in submission order. {!map_exn} is the strict form the
    experiment layer uses — the first failed job raises {!Job_failed}
    with its key and diagnostic, which the CLI turns into a one-line
    stderr message and a non-zero exit. *)

type t = {
  jobs : int;  (** worker domains; 1 = sequential, bit-identical *)
  store : Store.t option;  (** [None] disables caching *)
  progress : Progress.t;
}

exception
  Job_failed of {
    key : string;
    label : string;
    message : string;  (** the printed exception *)
  }

val sequential : t
(** One worker, no store, silent progress — the drop-in replacement for
    the old sequential code paths. *)

val create :
  ?jobs:int ->
  ?store:Store.t ->
  ?progress:Progress.t ->
  unit ->
  t
(** Defaults: [jobs = 1], no store, silent progress. *)

val with_store : t -> 'a Job.spec -> 'a Job.spec
(** Wrap a job's [run] with the context's store lookup (hit → the cached
    value, miss → run then cache), recording hits/misses/evictions on the
    context's progress sink. The identity when the context has no store.
    {!map} applies this to every job; {!Graph} applies it to cacheable
    nodes only. *)

val map : t -> 'a Job.spec list -> 'a Job.outcome list

val map_exn : t -> 'a Job.spec list -> 'a list
(** All outcomes must be [Done]; raises {!Job_failed} on the first that is
    not. *)
