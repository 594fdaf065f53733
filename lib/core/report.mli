(** Self-contained markdown reports.

    [generate] runs the full evaluation — every paper table and figure,
    the worked example, and the extensions — and renders one markdown
    document, suitable for committing next to EXPERIMENTS.md or attaching
    to a release. Everything inside is regenerated live, so the report
    always reflects the code that produced it. *)

val generate :
  ?config:Config.t ->
  ?exec:Vp_exec.Context.t ->
  ?models:Vp_workload.Spec_model.t list ->
  unit ->
  string
(** Defaults: the standard configuration, a sequential execution context,
    all eight benchmarks. The result is a complete markdown document: the
    paper's artifacts and the extensions, each a {!Artifact} entry fenced
    under its title, then the first model's ablation sweeps (every
    {!Experiments.ablation_sweeps} entry, in order) and recovery
    sensitivity. [exec] parallelizes and caches the underlying experiment
    jobs (see {!Experiments}) without changing the document. *)

val write_file :
  ?config:Config.t ->
  ?exec:Vp_exec.Context.t ->
  ?models:Vp_workload.Spec_model.t list ->
  path:string ->
  unit ->
  unit
(** [generate] straight to a file. *)
