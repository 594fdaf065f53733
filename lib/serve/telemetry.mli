(** Daemon telemetry: request counters, per-client counters, latency
    percentiles. All calls happen on the serve loop thread — the type is
    deliberately not thread-safe.

    The [stats] response and the periodic snapshot file both combine
    these counters with the work side's graph and cache counters — the
    cache hit rate and in-flight dedup count that prove overlapping
    requests resolve to one computation. *)

type t

val create : unit -> t

(** {1 Connection lifecycle} *)

val client_connected : t -> cid:int -> peer:string -> unit
val client_disconnected : t -> cid:int -> unit

(** {1 Request lifecycle} *)

val received : t -> unit
(** Any parsed request frame. *)

val accepted : t -> cid:int -> unit
val completed : t -> cid:int -> wall:float -> unit
val failed : t -> cid:int -> unit
val timed_out : t -> cid:int -> unit
val rejected : t -> cid:int -> code:string -> unit

(** {1 Rendering}

    A stats object is {!core_sections} followed by the work side's
    sections: {!work_sections} of the one graph in process, or those of
    every shard summed, plus a [workers] section, by the supervisor. *)

val core_sections : t -> queue_depth:int -> (string * Jsonx.t) list
(** The serve loop's sections: [uptime_s], [requests], [latency] (the
    percentiles of the most recent 65,536 completed requests) and
    [clients]. *)

val work_sections : Vp_exec.Progress.t -> (string * Jsonx.t) list
(** The [graph] and [cache] sections of one execution context's counters
    (including [node_evictions], the node-cache LRU's count of dropped
    completed nodes), followed by
    {!Vliw_vp.Experiments.telemetry_sections}: [spec_unit], [spec_eval]
    and [trace_sim], the sections [--telemetry] prints under the same
    names. *)

val ratios : (string * Jsonx.t) list -> (string * Jsonx.t) list
(** The work sections with [cache.hit_rate] and
    [spec_eval.vectors_per_word] recomputed from their counts by the
    functions that first built them. The supervisor applies it to the sum
    of its shards' sections, whose ratios do not add. *)
