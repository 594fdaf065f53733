(** Dependency-aware suite executor: a DAG of keyed jobs over one
    {!Context}, and the only executor there is.

    Experiments declare their work as {e nodes} — a content-addressed job
    key, a payload closure, dependencies on other nodes and (typically) a
    reducer node that folds dependency values into the experiment's result.
    One scheduler then drains every declared node on [jobs] worker domains
    with no inter-experiment barriers: a reducer becomes ready the moment
    its own dependencies finish, regardless of how many unrelated nodes
    are still queued. Running a node means: the {!Store} lookup of a
    cacheable node (a hit skips the payload, a miss runs it and writes
    the result), the job, cache and group accounting on the context's
    {!Progress} sink, and an exception turned into the node's failure.

    {b In-flight deduplication.} Declaring a node whose [key] is already
    on the graph returns the {e existing} node ({!Progress.job_deduped} is
    recorded): two experiments submitting the same job share one
    computation before it ever lands in the {!Store}. The store dedups
    completed results across runs; the graph dedups concurrent intent
    within one. Since the key is the only identity, the declared return
    types must agree for a given key — the same contract as the store's
    [Marshal]-typed payloads, where type safety is the caller's side of
    the bargain.

    {b Priority.} Ready nodes run in critical-path order: a node's
    priority is the length of the longest dependency chain hanging off it
    (a leaf three reducers deep outranks a free-standing leaf), with the
    declaration sequence breaking ties. With [jobs = 1] the drain is fully
    deterministic — nodes run one at a time in that order — which keeps
    sequential output the byte-identical reference for any [--jobs N].

    {b Failure.} A node that raises poisons its transitive dependents,
    including those declared after it failed: they are marked failed
    without running. Independent nodes are
    unaffected; {!await} on a failed or poisoned node raises
    {!Context.Job_failed}.

    {b Cycles.} Dependency edges are checked at declaration; an edge that
    would close a cycle raises {!Cycle} with the offending key path, so a
    cyclic suite fails fast rather than deadlocking the drain. *)

type t
(** A graph of declared nodes bound to one {!Context.t}. Declare with
    {!node}/{!add_dep}, run with {!await} or {!drain}. Not reentrant:
    declaring or awaiting from inside a node's payload is unsupported. *)

type 'a node
(** A declared job producing an ['a]. The phantom type is the caller's
    claim — see the dedup contract above. *)

type packed
(** An existentially packed node, for heterogeneous dependency lists. *)

exception Cycle of string list
(** The key path of the rejected dependency cycle, source first. *)

val create : Context.t -> t
(** An empty graph over the context's worker count, store and progress
    sink. *)

val pack : _ node -> packed

val key : _ node -> string
(** The content address the node was declared under. *)

val node :
  t ->
  ?label:string ->
  ?group:string ->
  ?cache:bool ->
  key:string ->
  ?deps:packed list ->
  (unit -> 'a) ->
  'a node
(** Declare (or dedup onto) the node for [key]. [deps] must finish before
    the payload runs; read their results inside the payload with {!value}.
    [cache] defaults to [true]: with a store on the context, a stored
    result under [key] answers the node without running the payload, and
    a computed one is written back. Reducers pass [~cache:false] — their
    inputs are already cached or deduped, and a store round-trip on the
    fold would just marshal the same data twice.
    [group] names the experiment for {!Progress.group_wall} telemetry.
    Dedup keeps the first declaration's label, group, cache flag, payload
    {e and} dependencies; later [deps] are still linked (and
    cycle-checked) so the union of declared orderings holds. *)

val find : t -> key:string -> 'a node option
(** The node already on the graph under [key], exactly as the dedup branch
    of {!node} would return it — in flight, finished or failed — with the
    same bookkeeping: one {!Progress.job_deduped} and an LRU touch, so a
    node answered by lookup stays as warm as one deduped onto. [None]
    when no node holds the key (never declared, or evicted by the node
    cap); a miss declares nothing. The phantom type is the caller's claim,
    as for {!node}: the key must have been declared at type ['a]. *)

val value : 'a node -> 'a
(** The node's result. Only valid once the node finished successfully —
    inside a dependent's payload, or after {!await}/{!drain} — and raises
    [Invalid_argument] otherwise. *)

val add_dep : t -> packed -> on:packed -> unit
(** [add_dep t n ~on:d] orders [d] before [n] after both were declared.
    Raises {!Cycle} (and leaves the graph unchanged) if [d] already
    depends on [n]; raises [Invalid_argument] if [n] is running or
    finished. *)

val await : t -> 'a node -> 'a
(** The node's result, draining the {e whole} graph first if it has not
    finished — every declared node runs, not just the awaited subtree, so
    a sequence of [await]s over one graph executes barrier-free: later
    experiments' nodes interleave with the first await's drain. With
    {!start_workers} active, [await] instead blocks until the resident
    workers finish the node. Raises {!Context.Job_failed} if the node
    failed, timed out or was poisoned. A payload must not await or drain
    its own graph: the loop would wait for the running payload itself. *)

val drain : t -> unit
(** Run every unfinished node; referenced results stay readable through
    {!value}. The drain runs the resident workers' loop on [min jobs
    unfinished] workers (the count {!Progress.set_workers} records), told
    to exit once nothing is ready and nothing is running. A single worker
    runs in the calling domain, so a one-job drain spawns no domain; more
    run on that many spawned domains. Raises {!Cycle} if nodes are then
    still unfinished — defensive, {!node}/{!add_dep} already reject cyclic
    edges. Raises [Invalid_argument] while resident workers
    ({!start_workers}) run. *)

val on_complete : t -> 'a node -> (('a, string) result -> unit) -> unit
(** Subscribe to the node's completion: the callback fires exactly once
    with [Ok value] or [Error diagnostic] (failure, timeout or poisoning),
    immediately if the node has already finished. Callbacks run outside
    the graph mutex but {e on whichever thread finishes the node} — a
    worker domain, or the declaring thread when declaration itself settles
    the node (dedup onto a finished node, poisoning by a failed
    dependency). They must be fast, must not raise and must not call back
    into the graph; hand the result off to your own queue. This is how the
    serve daemon streams results: one subscription per request artifact,
    each callback enqueueing a response frame. *)

(** {1 Resident workers}

    The daemon-mode drain: instead of draining the declared nodes and
    returning, {!start_workers} keeps [jobs] worker domains alive that
    execute ready nodes {e as they are declared}, indefinitely. Clients
    (the serve loop) declare nodes and subscribe with {!on_complete};
    overlapping declarations dedup in flight exactly as in batch mode.
    {!stop_workers} initiates a graceful shutdown: workers finish
    everything already runnable (in-flight {e and} queued), then exit. *)

val start_workers : t -> unit
(** Spawn the context's [jobs] resident worker domains (at least one).
    Raises [Invalid_argument] if they are already running. *)

val stop_workers : t -> unit
(** Signal the resident workers to finish all runnable work and exit, and
    join them. No-op when none are running. *)

val size : t -> int
(** Nodes declared (dedup hits not counted). *)

val retained : t -> int
(** Nodes currently held by the graph (declared minus LRU-evicted). *)

val set_node_cap : t -> int option -> unit
(** Bound the number of retained nodes. Beyond the cap, the coldest
    successfully finished nodes (least recently declared, deduped onto,
    found by {!find} or completed) are evicted in batches down to 90% of
    it: their [by_key] entry and edges are dropped,
    {!Progress.node_evicted} is recorded, and a later declaration of the
    same key recomputes — store-cached payloads answer from the warm
    on-disk store, so eviction bounds resident memory without forgetting
    results. Unfinished and failed nodes are never evicted (failures stay
    sticky for {!await}); dependents are unaffected because they capture
    their dependencies' values directly. [None] (the default) retains
    every node for the graph's lifetime. *)
