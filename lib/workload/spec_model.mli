(** Synthetic models of the paper's eight benchmarks.

    The evaluation (Tables 2–4) runs five SPEC INT 95 programs (compress,
    ijpeg — printed "tjpeg" in the paper's table —, li, m88ksim, vortex) and
    three SPEC FP 95 programs (hydro2d, swim, tomcatv). SPEC sources and
    inputs are not redistributable, and the experiments consume only three
    things from a benchmark: the dependence structure of its basic blocks,
    the value-predictability of its loads, and its block execution
    frequencies. Each model here captures those three aspects with
    parameters calibrated to the program's published character:

    - integer pointer-chasing codes (vortex, m88ksim, li) get deep
      load-to-load dependence chains, so predicting loads shortens critical
      paths a lot;
    - compress and ijpeg sit in the middle: moderate chains, moderate
      predictability (table lookups on computed indices);
    - the FP loop nests (swim, tomcatv, hydro2d) have highly strided,
      predictable loads but wide, parallel blocks — hydro2d retains enough
      recurrence structure to benefit, swim and tomcatv are resource-bound
      so their schedules barely change, as in the paper's Table 3/4;
    - block frequencies follow a Zipf law (hot loops dominate), FP codes
      more skewed than integer codes. *)

(** A distribution over load value-stream shapes: which shape, and the
    band each drawn parameter falls in. Plain data, so a model compares
    with [=] and marshals without closures. *)
type shape_dist =
  | Constant  (** [Constant v], [v] uniform in [\[0, 4096)] *)
  | Strided  (** base below 65536, stride a multiple of 4 up to 32 *)
  | Mostly_strided_band of float * float
      (** stride up to 16; jump probability uniform in [\[lo, hi)] *)
  | Noisy_periodic_band of float * float
      (** period 2 to 4; noise uniform in [\[lo, hi)] *)
  | Pointer_chain_band of int * int  (** node count uniform in [lo..hi] *)
  | Random  (** value range [2^8] to [2^23] *)
  | Fixed of Value_stream.shape  (** always this shape; draws nothing *)

type shape_weight = { weight : float; dist : shape_dist }
(** One entry of a benchmark's load-predictability mix. *)

type t = {
  name : string;
  description : string;
  num_blocks : int;  (** static basic blocks *)
  block_size_mean : int;  (** operations per block, mean *)
  block_size_spread : int;  (** +/- uniform spread around the mean *)
  mem_fraction : float;  (** fraction of operations that touch memory *)
  store_fraction : float;  (** of memory operations, fraction of stores *)
  float_fraction : float;  (** fraction of ALU operations that are FP *)
  mul_fraction : float;  (** of integer ALU operations, multiplies *)
  branch_fraction : float;  (** probability a block ends with cmp+branch *)
  dep_density : float;
      (** probability a source operand comes from an earlier result in the
          block rather than a live-in register *)
  locality : int;  (** how many recent definitions sources draw from *)
  reuse_fraction : float;
      (** probability a result overwrites an existing register, creating
          anti/output dependences *)
  load_chain_bias : float;
      (** probability a load's address comes from an earlier load's result
          (pointer chasing) when one is available *)
  shape_mix : shape_weight list;  (** load value-stream distribution *)
  chain_mix : shape_weight list option;
      (** distribution for loads whose address comes from another load's
          result (pointer fields); [None] falls back to [shape_mix]. Real
          pointer walks are regular, so the pointer-chasing models give
          chained loads a far more predictable mix. *)
  zipf_skew : float;  (** block-frequency skew (higher = hotter hot blocks) *)
  dynamic_executions : int;  (** total dynamic block executions profiled *)
}

val compress : t
val ijpeg : t
val li : t
val m88ksim : t
val vortex : t
val hydro2d : t
val swim : t
val tomcatv : t

val all : t list
(** The eight models in the paper's table order (INT then FP). *)

val spec_int : t list
val spec_fp : t list

val by_name : string -> t option
(** Case-insensitive lookup; accepts "tjpeg" as an alias for ijpeg. *)

val resolve : string list -> (t list, string) result
(** The models a benchmark list names, in its order, through {!by_name};
    [[]] means {!all}. [Error name] carries the first unknown name, so
    each caller words its own message. *)

val draw_shape : ?chained:bool -> t -> Vp_util.Rng.t -> Value_stream.shape
(** Sample a load value-stream shape; [~chained:true] (the load's address is
    another load's result) uses [chain_mix]. *)
