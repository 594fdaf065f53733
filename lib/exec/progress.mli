(** Telemetry sink for a batch of jobs.

    One [t] accumulates everything a {!Graph} drain (and the {!Store}
    lookups of its cacheable nodes) wants to report: job state counts,
    cache hits/misses/evictions, per-job wall times and aggregate worker
    utilization. All recording entry points are mutex-protected and safe to
    call from any domain.

    Two renderings:
    - a one-line live status (e.g. ["jobs 12/16 (3 running) | cache 5 hit
      11 miss | 8.2s"]), repainted in place on stderr while [live] is on
      (default: only when stderr is a terminal, so redirected runs and
      tests stay byte-clean);
    - {!sections} — the executor's sections of the telemetry document,
      for scripts and the acceptance check ("a warm-cache rerun shows
      [misses = 0]"). *)

type t

type snapshot = {
  queued : int;  (** jobs submitted over the sink's lifetime *)
  running : int;
  completed : int;  (** jobs that returned a value *)
  failed : int;
  deduped : int;
      (** graph nodes resolved by in-flight deduplication — a submission
          whose key matched a node already declared on the same graph *)
  peak_in_flight : int;  (** highest simultaneous [running] observed *)
  cache_hits : int;
  cache_misses : int;  (** store lookups that had to compute *)
  corrupt_evicted : int;  (** cache entries evicted as unreadable *)
  nodes_evicted : int;
      (** completed graph nodes dropped by the node-cache LRU — their
          results remain in the on-disk store *)
  workers : int;
      (** worker domains the last drain ran on (1 = sequential); the
          resident worker count while a daemon's workers run *)
  wall_total : float;  (** seconds since [create] *)
  job_wall_total : float;  (** summed per-job wall seconds *)
  job_wall_max : float;
}

val create : ?live:bool -> unit -> t
(** [live] defaults to [Unix.isatty Unix.stderr]. *)

val silent : unit -> t
(** Never paints; still counts. *)

(** {1 Recording} *)

val add_queued : t -> int -> unit
val job_started : t -> unit
val job_done : t -> wall:float -> unit
val job_failed : t -> wall:float -> unit

val job_deduped : t -> unit
(** A graph submission was answered by an already-declared node. *)

val cache_hit : t -> unit
val cache_miss : t -> unit
val corrupt_evicted : t -> unit

val node_evicted : t -> unit
(** A cold completed graph node was evicted by the node-cache LRU. *)

val set_workers : t -> int -> unit

val finish : t -> unit
(** Clear the live line (no-op when not live). Call once after a batch. *)

(** {1 Reading} *)

val snapshot : t -> snapshot

val sections : t -> (string * Vp_util.Jsonx.t) list
(** The executor's sections of the telemetry document: [jobs] ([queued],
    [done], [failed]), [cache] ([hits], [misses], [corrupt_evicted]),
    [wall_s] ([total], [mean_job], [max_job]), [workers] ([count],
    [utilization]) and [graph] ([deduped], [peak_in_flight],
    [nodes_evicted]). Utilization is summed job wall time over
    [workers * wall_total], clamped to [0, 1]; it and the wall times are
    rounded to milliseconds. {!Cli.emit_telemetry} prints them followed by
    the sections of the layers above this library. *)
