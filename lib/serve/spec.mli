(** Request semantics shared by the in-process server, the sharded
    supervisor and its forked workers: turning a validated
    {!Protocol.submit} into the experiment configuration, benchmark
    models and custom-sweep points it denotes, computing artifact render
    keys — the identity used both for graph lookup and for shard
    routing — and declaring artifact render nodes on a graph.

    Supervisor and workers must agree exactly on all of this: the
    supervisor routes an artifact to the shard its render key hashes to,
    and the worker answers equal work from the node under the same key.
    The keys are {!Vp_exec.Store.key} digests of plain data, so
    supervisor and workers compute the same key for equal work. Render
    keys name graph nodes only: render nodes are never store-cached, so
    no key reaches the on-disk store. *)

type t
(** A validated request: the experiment configuration (core fields plus
    machine-config overrides, fully applied), the benchmark models, the
    csv flag and the custom sweeps with each point's overrides applied on
    top of the configuration. One spec serves one request and belongs to
    the thread that admitted it. *)

val of_submit : Protocol.submit -> (t, Protocol.reject) result
(** Validate and resolve a submit: benchmark names
    ([unknown_benchmark]), machine-config overrides ([bad_config]) and
    custom-sweep points ([bad_sweep]). Pure — admission decisions
    (quotas, shutdown) stay with the caller. *)

val render_key : t -> artifact:string -> string
(** Content address of one artifact's render node: the key of the spec's
    shared key, a custom sweep's applied point configs and the artifact
    name. The shared key covers models, configuration and csv flag; it is
    marshalled on the spec's first key and reused by the rest, so a
    request digests its full spec at most once. Custom sweep artifacts
    key in their applied point configs, so same-named sweeps with
    different points never share a node. *)

val shard_of_key : workers:int -> string -> int
(** The shard an artifact key routes to — a stable function of the key
    alone, so equal work always lands on the same shard (preserving
    in-flight dedup) and the mapping survives a shard re-fork. *)

val declare_artifact :
  Vp_exec.Graph.t -> t -> string -> string Vp_exec.Graph.node
(** The artifact's render node; its value is the artifact's rendered
    bytes — exactly what [vliw_vp all] prints for it, trailing separator
    newline included. A node already on the graph under the render key
    (in flight, finished or failed) is returned by one
    {!Vp_exec.Graph.find}, which counts one dedup; only when that misses
    (the key's first request, or the node-cache LRU evicted the node)
    are the artifact's leaves, reducers and render node declared. Raises
    [Invalid_argument] on an artifact name {!Protocol.expand_experiments}
    would have rejected. *)
