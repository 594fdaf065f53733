(** Shared execution-context flag vocabulary.

    Every executable that runs jobs — the cmdliner-based [vliw_vp] driver
    and the hand-rolled bench harness — accepts the same four flags with
    the same semantics, defined once here: [--jobs N], [--no-cache],
    [--cache-dir DIR] and [--telemetry FILE]. The cmdliner front end maps
    its parsed terms onto {!opts}; plain front ends call {!parse}
    directly. *)

type opts = {
  jobs : int;  (** worker domains; 1 = sequential *)
  no_cache : bool;  (** disable the on-disk result {!Store} *)
  cache_dir : string;
  telemetry : string option;
      (** where to write the telemetry document; ["-"] = stderr *)
}

val max_jobs : int
(** 127: OCaml 5.1 runs at most 128 domains per process, the main one
    included, and [--jobs N] spawns up to [N] worker domains. *)

val check_jobs : int -> (int, string) result
(** [Ok jobs] for [1 <= jobs <= ]{!max_jobs}, else an error message naming
    the range. Both front ends validate [--jobs] with it, so a value no
    drain can run is refused before any domain starts. *)

val default : opts
(** One worker, caching on in {!Store.default_dir}, no telemetry. *)

val usage : string
(** One-line description of the shared flags, for error messages. *)

val parse : string list -> (opts * string list, string) result
(** [parse args] consumes the shared flags anywhere in [args] and returns
    the remaining arguments in their original order — the caller decides
    whether leftovers are its own flags or an error. Fails with a message
    on a malformed or missing flag value. *)

val context : ?progress:Progress.t -> opts -> Context.t
(** Build the execution context the options describe. An unusable cache
    directory (uncreatable, not a directory, or read-only — probed with
    one temp-file write), or an executable that cannot be digested to
    version the entries, downgrades to a storeless context with a single
    [stderr] warning instead of failing per job. *)

val emit_telemetry :
  ?extra:(string * Vp_util.Jsonx.t) list -> opts -> Context.t -> unit
(** Write the telemetry document to the configured destination, if any:
    one line of compact JSON, the context's {!Progress.sections} followed
    by the [extra] sections — the front ends pass the compute layers'
    sections, which live in a library above this one. *)
