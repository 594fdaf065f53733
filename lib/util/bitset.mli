(** Growable bit sets over non-negative integer indices.

    Used to model the Synchronization register of the proposed architecture
    (one bit per predicted value) and wait-masks attached to VLIW
    instructions. The register in the paper is a fixed-width hardware
    structure; we let it grow so the compiler can allocate as many bits as a
    block needs and report the high-water mark. *)

type t

val create : unit -> t
(** Empty set. *)

val of_list : int list -> t
(** Set containing exactly the given indices. *)

val copy : t -> t

val set : t -> int -> unit
(** [set t i] adds index [i]. [i] must be non-negative. *)

val clear : t -> int -> unit
(** [clear t i] removes index [i]. No-op if absent. *)

val mem : t -> int -> bool

val is_empty : t -> bool

val cardinal : t -> int
(** Number of set bits. *)

val max_set_bit : t -> int option
(** Highest set index, if any — the hardware width the block would need. *)

val intersects : t -> t -> bool
(** [intersects a b] is [true] iff the sets share an index. This is the
    hardware issue test: a VLIW instruction with wait-mask [a] stalls while
    the Synchronization register [b] has any of those bits set. *)

val union_into : dst:t -> t -> unit
(** [union_into ~dst src] adds every member of [src] to [dst]. *)

val iter : (int -> unit) -> t -> unit
(** Iterate set indices in increasing order. *)

val elements : t -> int list
(** Set indices in increasing order. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Renders as "{1,5,6}". *)
