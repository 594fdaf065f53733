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
    sections: {!pool_sections} and {!spec_unit_section} of the one graph
    in process, or those of every shard summed, plus a [workers] section,
    by the supervisor. *)

val core_sections : t -> queue_depth:int -> (string * Jsonx.t) list
(** The serve loop's sections: [uptime_s], [requests], [latency],
    [clients]. *)

val pool_sections : Vp_exec.Progress.snapshot -> (string * Jsonx.t) list
(** The [graph] and [cache] sections of one execution context's
    counters (including [node_evictions], the node-cache LRU's count of
    dropped completed nodes). *)

val spec_unit_section : unit -> string * Jsonx.t
(** The [spec_unit] section: this process's {!Vliw_vp.Spec_unit} memo
    counters ([hits], [misses], [evictions]) with the
    {!Vliw_vp.Region_unit} formation memo's nested as [region_unit] — the
    numbers [--telemetry] prints under the same name. *)
