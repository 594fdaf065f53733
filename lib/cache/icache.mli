(** Set-associative LRU instruction cache.

    Section 1 of the paper argues that the static-recovery scheme of
    reference [4] hurts the instruction cache: "Whenever control is
    transferred to compensation code blocks, the instruction cache would be
    affected by these blocks. In order to accommodate the compensation code
    blocks, the cache may evict other useful blocks." The dual-engine
    architecture keeps compensation code out of instruction memory entirely.

    This module is the substrate for quantifying that effect: a classic
    set-associative cache with true-LRU replacement, accessed with byte
    addresses. The baseline walks each executed VLIW instruction's address
    through it; the difference in misses between layouts with and without
    embedded compensation blocks, times the miss penalty, is the cache
    component of the baseline's overhead. *)

type t

type stats = { accesses : int; hits : int; misses : int }

val create : ?line_bytes:int -> ?ways:int -> size_bytes:int -> unit -> t
(** Defaults: 32-byte lines, 2-way. [size_bytes] must be divisible by
    [line_bytes * ways]; [line_bytes] and the resulting number of sets
    must be powers of two. *)

val access : t -> int -> [ `Hit | `Miss ]
(** Look up the line containing the byte address, updating LRU state and
    filling on a miss. The victim is the set's first invalid way, else its
    least recently used one (the first on ties). Allocates nothing. *)

val access_range : t -> addr:int -> bytes:int -> int
(** Touch every line overlapped by [\[addr, addr+bytes)]; returns the number
    of misses. Convenience for fetching a multi-line VLIW instruction. *)

val stats : t -> stats

val miss_rate : t -> float
(** Misses over accesses; 0 before any access. *)

val reset : t -> unit
(** Invalidate contents and zero statistics. *)

val line_bytes : t -> int

val num_sets : t -> int

val ways : t -> int
