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
    - {!json_summary} — a machine-readable summary for scripts and the
      acceptance check ("a warm-cache rerun shows [misses = 0]"). *)

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
  groups : int;  (** distinct job groups that reported a wall time *)
  fork_join_estimate_s : float;
      (** sum over groups of the group's slowest job — what a barriered
          per-experiment fork-join would cost on unboundedly many workers *)
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

val group_wall : t -> group:string -> wall:float -> unit
(** Record one job's wall time under its experiment group; the per-group
    maxima sum to {!snapshot.fork_join_estimate_s}. *)

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

val json_summary : ?extra:(string * string) list -> t -> string
(** One JSON object: [{"jobs": {...}, "cache": {...}, "wall_s": {...},
    "workers": {...}, "graph": {...}}]. Utilization is summed job wall
    time over [workers * wall_total], clamped to [0, 1]. The ["graph"]
    section reports in-flight dedup, peak concurrency and the barriered
    fork-join estimate next to the barrier-free ["wall_s".total]. Each
    [extra] pair [(name, json)] is appended verbatim as a top-level
    field — the hook callers use to attach sections this library cannot
    see (e.g. the spec-unit memo counters, which live above it). *)
