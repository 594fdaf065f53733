(** The resident simulation daemon behind [vliw_vp serve]: its one
    client-facing loop, and the in-process work side.

    Every daemon is {!serve}: a [select] loop on the calling thread that
    binds the Unix (and optionally a loopback TCP) listener, accepts
    connections, decodes {!Protocol} frames, admits requests and streams
    responses. Where admitted work runs is the {!work} side it is given.
    {!run} ([--workers 0]) declares each artifact as a content-addressed
    node on {e one} shared {!Vp_exec.Graph} with resident worker domains;
    {!Supervisor.run} routes it to forked shards, each of which runs
    {!run_worker}, the same loop and graph over one socketpair.
    Overlapping requests — from one client or many — resolve to in-flight
    nodes, to results the graph already holds, or to the warm on-disk
    store; each payload simulation runs once per graph.

    Production envelope, the same code whatever the work side:
    - {e admission control}: at most [max_pending] admitted-but-unfinished
      requests server-wide and [client_quota] per connection; excess
      submits are rejected immediately with a structured [error] frame
      ([overloaded] / [quota_exceeded]) — the server never silently hangs
      a client. The checks run in a fixed order: [shutting_down],
      [overloaded], [quota_exceeded], then the request's own validation;
    - {e timeouts}: every request has a deadline ([timeout_s] in the
      request, else [default_timeout_s]), checked at every tick and again
      before anything is delivered for it, so a result that lands past the
      deadline is an [error] frame with code [timeout]. Work already
      declared runs on: it is content-addressed and shared, and its
      results stay warm for future requests;
    - {e graceful shutdown}: a [shutdown] request, SIGINT or SIGTERM stop
      the listeners, reject new submits with [shutting_down], drain every
      admitted request to its [done]/[error] frame, flush the sockets,
      wind the work side down and remove the socket file;
    - {e telemetry}: a [stats] request answers with the {!Telemetry}
      snapshot (request counters, latency percentiles, per-client
      counters, graph dedup and cache hit rate); [stats_file] additionally
      gets a JSON snapshot every [stats_every_s] seconds and once at
      exit. *)

type config = {
  socket_path : string;
  tcp_port : int option;  (** additional 127.0.0.1 TCP listener *)
  max_pending : int;  (** admitted-but-unfinished requests, server-wide *)
  client_quota : int;  (** admitted-but-unfinished requests per connection *)
  default_timeout_s : float;  (** per request; [0.] disables *)
  max_frame : int;
  stats_file : string option;  (** periodic telemetry snapshot target *)
  stats_every_s : float;
  node_cap : int option;
      (** graph node-cache LRU bound (see {!Vp_exec.Graph.set_node_cap});
          [None] = unbounded *)
}

val default_config : socket:string -> unit -> config
(** 64 pending, 16 per client, 300 s timeout, 4 MiB frames, no TCP, no
    stats file, unbounded node cache. *)

val run : ?on_ready:(unit -> unit) -> exec:Vp_exec.Context.t -> config -> Jsonx.t
(** Run the in-process daemon until shutdown; returns the final telemetry
    snapshot. [on_ready] fires once the listeners are bound (used by tests
    and the in-process bench harness to know when to connect). The
    context's [jobs] sets the resident worker count; its [store] is the
    shared warm cache. An idle daemon blocks in [select] without a
    timeout, allocating nothing. *)

val run_worker :
  ?on_ready:(unit -> unit) ->
  exec:Vp_exec.Context.t ->
  config ->
  Unix.file_descr ->
  Jsonx.t
(** One shard of the sharded daemon (see {!Supervisor}): {!run}'s loop
    and graph over exactly one connection — [fd], the socketpair to the
    supervisor — with no listeners, no signal handling and no admission
    limits or default timeout of its own (those are the supervisor's;
    deadlines arrive as explicit [timeout_s] on forwarded sub-requests).
    Runs until the supervisor sends [shutdown] and the backlog drains, or
    the socketpair hits EOF (supervisor gone). Returns the shard's final
    telemetry snapshot. Must be called in a freshly forked child
    {e before} any domain exists in it; it spawns the shard's own resident
    worker domains. *)

(** {1 The loop, for other work sides} *)

type front
(** The loop's state: listeners, connections, admitted requests. *)

type req
(** An admitted request. *)

val delivered : req -> int
(** Results delivered so far. *)

val total : req -> int
(** Artifacts the request asked for. *)

type work = {
  dispatch : req -> Spec.t -> Protocol.submit -> unit;
      (** Start an admitted request's artifacts (the submit's
          [experiments]); its [timeout_s] is the resolved budget. *)
  stats : ((string * Jsonx.t) list -> unit) -> unit;
      (** Hand the work side's stats sections ([graph], [cache], ...) to
          the continuation, now or once collected. *)
  fds : unit -> Unix.file_descr list * Unix.file_descr list;
      (** Descriptors of its own to select on: for reading, and for
          writing. *)
  step : Unix.file_descr list -> unit;
      (** Once per turn of the loop, given the readable descriptors:
          deliver what has arrived and do its own I/O. *)
  idle_timeout : float;
      (** The [select] timeout when nothing time-driven is pending;
          negative blocks. *)
  wind_down : unit -> bool;
      (** Called on every turn once shutting down with every request
          settled; [true] once the work side has wound down. *)
  stop : unit -> (string * Jsonx.t) list;
      (** Release everything; returns the final stats sections. *)
}

val deliver : front -> req -> artifact:string -> data:string -> unit
(** Stream one result; the request's [done] follows its last. Past the
    deadline the request times out instead. No-op on a settled
    request. *)

val fail : front -> req -> Protocol.reject -> unit
(** Settle the request with an [error] frame (a [timeout] past the
    deadline). No-op on a settled request. *)

val inherited_fds : front -> Unix.file_descr list
(** The loop's listeners, self-pipe and client connections — what a
    child forked from the loop must close. *)

val serve :
  ?on_ready:(unit -> unit) -> config -> (front -> work) -> Jsonx.t
(** Bind the listeners, build the work side, install the SIGINT/SIGTERM
    handlers, fire [on_ready] and run the loop until shutdown; returns
    the final telemetry snapshot. The work side is built before any
    domain of the loop's own exists, so it may fork. *)
