(** Content-addressed on-disk result cache.

    Each entry is one file under the store directory, named by the MD5 of
    the job key and laid out as

    {v
    VPEXEC-CACHE 1\n
    <version>\n
    <key>\n
    <MD5 hex of payload>\n
    <payload: Marshal of the cached value>
    v}

    Guarantees:
    - {b atomicity} — [put] writes a temp file in the store directory,
      created exclusively and written through the one channel that created
      it, and [Sys.rename]s it over the entry, so readers never observe a
      partial write and concurrent writers of the same key are last-wins;
    - {b versioning} — the header carries the store's version string
      (default: MD5 of the running executable plus the OCaml version), so a
      rebuilt binary silently recomputes rather than deserializing
      incompatible data. There is no fallback stamp: a process that cannot
      digest its own executable cannot create a default-versioned store;
    - {b corruption recovery} — any unreadable entry (truncated file, bad
      magic, stale version, digest mismatch, undeserializable payload) is
      evicted and reported as {!Evicted}; it is never fatal. Eviction is
      rename-based, so racing readers of one corrupt entry evict it
      {e exactly once} (the losers report {!Miss}), and an entry that a
      concurrent [put] renewed after the corrupt read was taken is
      restored, not deleted.

    Type safety is the caller's contract: the store persists whatever was
    [put] under a key, and [find] returns it at whatever type the caller
    expects — exactly the [Marshal] contract. Keys must therefore encode
    everything the value depends on (the experiment layer digests the whole
    [(kind, model, config)] triple). *)

type t

type 'a lookup =
  | Hit of 'a
  | Miss  (** no entry *)
  | Evicted  (** an entry existed but was unreadable and has been removed *)

val default_dir : string
(** ["_cache"]. *)

val create : ?version:string -> dir:string -> unit -> t
(** Creates [dir] (and parents) if missing. Raises [Sys_error] if the
    directory cannot be created or is not writable, or if [version] is
    omitted and the running executable cannot be digested. *)

val dir : t -> string
val version : t -> string

val find : t -> key:string -> 'a lookup

val put : t -> key:string -> 'a -> unit
(** Serialization failures (a value [Marshal] rejects) degrade to a no-op:
    the result is simply not cached. *)

val entry_path : t -> key:string -> string
(** Where [key]'s entry lives — exposed for tests and debugging. *)
