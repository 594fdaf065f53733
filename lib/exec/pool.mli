(** Fixed-size [Domain]-based worker pool.

    [run ~jobs specs] executes every job and returns their outcomes in
    submission order. With [jobs <= 1] (or a single job) everything runs
    sequentially in the calling domain, in list order — the bit-identical
    reference path. With [jobs > 1], [min jobs (length specs)] worker
    domains drain a mutex/condition work queue; job results land in a
    pre-sized slot array, so completion order never influences the returned
    order.

    Determinism: a job's {!Job.ctx} RNG is seeded from its key, so a job
    draws the same random stream whichever worker runs it and wherever it
    sat in the queue.

    Failure isolation: an exception inside one job becomes its [Failed]
    outcome; other jobs are unaffected. *)

val run :
  ?progress:Progress.t ->
  jobs:int ->
  'a Job.spec list ->
  'a Job.outcome list

val execute : progress:Progress.t -> 'a Job.spec -> 'a Job.outcome
(** Run one job in the calling domain with the pool's per-job machinery —
    key-derived RNG context, progress accounting, exception-to-outcome
    conversion. This is the single-job primitive {!run} loops over;
    {!Graph} drives it directly so a DAG scheduler and a flat batch
    execute jobs identically. *)
