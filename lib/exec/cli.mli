(** Shared execution-context flag vocabulary.

    Every executable that runs jobs — the cmdliner-based [vliw_vp] driver
    and the hand-rolled bench harness — accepts the same four flags with
    the same semantics, defined once here: [--jobs N], [--no-cache],
    [--cache-dir DIR] and [--telemetry FILE]. The cmdliner front end maps
    its parsed terms onto {!opts}; plain front ends call {!parse}
    directly.

    [--no-spec-cache] is parsed here for uniformity but applied by the
    caller (the spec-unit cache lives above this library): front ends must
    forward [opts.no_spec_cache] to [Vliw_vp.Spec_unit.set_enabled]. *)

type opts = {
  jobs : int;  (** worker domains; 1 = sequential *)
  no_cache : bool;  (** disable the on-disk result {!Store} *)
  no_spec_cache : bool;
      (** disable the in-memory per-block artifact (spec-unit) cache *)
  cache_dir : string;
  telemetry : string option;
      (** where to write the JSON telemetry summary; ["-"] = stderr *)
}

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
  ?extra:(string * string) list -> opts -> Context.t -> unit
(** Write the context's telemetry summary to the configured destination,
    if any. [extra] pairs are appended as top-level JSON fields (see
    {!Progress.json_summary}) — the front ends use this to attach the
    spec-unit stripe counters, which live in a library above this one. *)
