(** The sharded daemon behind [vliw_vp serve --workers N].

    {!run} is {!Server.serve} — the one client-facing loop, with its
    listeners, admission ([max_pending] server-wide, [client_quota] per
    connection), request deadlines, graceful drain and telemetry — whose
    work goes to [N] forked shard processes instead of an in-process
    graph. Each shard runs {!Server.run_worker}: the same loop with its
    own {!Vp_exec.Graph} and worker domains, linked to the supervisor by a
    socketpair speaking the ordinary frame protocol. All shards share the
    content-addressed on-disk store.

    Routing is by artifact identity: an artifact's {!Spec.render_key}
    hashes to its shard ({!Spec.shard_of_key}), so equal work from any
    number of clients lands on the same shard and dedups inside its
    graph exactly as in the single-process daemon, and the mapping —
    a pure function of the key — survives shard re-forks. Result frames
    stream back through the supervisor re-headed with the client's
    request id, unparsed ({!Protocol.split_result}); per-artifact
    framing, result bytes and reassembly order are identical to the
    unsharded path.

    A shard that exits or wedges (socketpair EOF, or >15 s of heartbeat
    silence) is SIGKILLed and reaped; requests with sub-work in flight
    on it get a structured [worker_lost] error frame; the slot is
    re-forked immediately and the daemon keeps serving everyone else.

    Fork discipline: [Unix.fork] refuses to run once any domain exists,
    so {!run} forks every shard before any domain is created and the
    supervisor never spawns domains itself — call it before creating
    any domain in the process. *)

val run :
  ?on_ready:(unit -> unit) ->
  make_exec:(unit -> Vp_exec.Context.t) ->
  workers:int ->
  Server.config ->
  Jsonx.t
(** Run the sharded daemon until shutdown; returns the final telemetry
    snapshot (the loop's request counters, the shards' graph/cache
    sections summed as of their last stats replies, and a [workers]
    section). [make_exec] is called once {e inside} each freshly forked
    shard to build its execution context — the contexts must all point at
    the same store for cross-shard warmth. [on_ready] fires once the
    listeners are bound and every shard is forked. Raises
    [Invalid_argument] when [workers < 1] (use {!Server.run} for the
    in-process daemon). *)
