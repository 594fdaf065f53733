(** Bounded, striped find-or-compute tables: the one in-process memo every
    cache layer of the pipeline is an instance of.

    A key hashes to one of 16 stripes, each with its own mutex, so worker
    domains contend on a fraction of the lock traffic. [compute] runs
    outside the stripe lock: racing domains that miss the same key may
    each compute, but the {b first insert wins} and every caller gets that
    value, so all holders of one key share one physical value. A stripe
    that reaches its share of the bound is emptied before the next insert
    (counted as evictions), so the table never holds more than its [cap]
    entries. *)

type ('k, 'v) t

type stats = {
  hits : int;  (** lookups answered from memory or by [load] *)
  misses : int;  (** calls that ran [compute] *)
  evictions : int;  (** entries dropped by the bound *)
}

val create : ?hash:('k -> int) -> ?equal:('k -> 'k -> bool) -> int -> ('k, 'v) t
(** [create cap] holds at most [cap] entries ([cap / 16] per stripe).
    [hash] (default [Hashtbl.hash]) picks the stripe and bucket and must
    agree with [equal] (default [( = )]); a physically keyed table passes
    [( == )] on the key's identity part and hashes that part. Raises
    [Invalid_argument] when [cap] is below the stripe count. *)

val find_or_add :
  ('k, 'v) t -> ?load:(unit -> 'v option) -> 'k -> (unit -> 'v) -> 'v
(** [find_or_add t ~load key compute] returns the value held for [key];
    otherwise the one [load] finds (a hit), otherwise [compute ()] (a
    miss), inserted unless a racing caller inserted first — in which case
    the earlier value is returned. An exception from [load] or [compute]
    propagates and inserts nothing. *)

val find_opt : ('k, 'v) t -> 'k -> 'v option
(** Look [key] up without computing or counting. *)

val length : ('k, 'v) t -> int
(** Entries currently held. *)

val stats : ('k, 'v) t -> stats
(** Counters since creation or the last {!clear}. *)

val total : stats list -> stats
(** Field-wise sum, for a layer that reports several tables as one. *)

val clear : ('k, 'v) t -> unit
(** Drop every entry and zero {!stats} (tests, benchmarks). *)
