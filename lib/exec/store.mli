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
    - {b versioning} — the header carries the store's version string, so
      a rebuilt binary silently recomputes rather than deserializing
      incompatible data. The default stamps the running executable: a
      native ELF executable's GNU build ID (the linker's hash of the whole
      linked output, read from its first 4 KiB, see {!build_id}) as
      [build-id-<hex>-ocaml<version>], and otherwise the MD5 of the whole
      file as [<hex>-ocaml<version>]. There is no constant stamp: a process
      that cannot read its own executable cannot create a default-versioned
      store;
    - {b corruption recovery} — any unreadable entry (truncated file, bad
      magic, stale version, digest mismatch, undeserializable payload) is
      evicted and reported as {!Evicted}; it is never fatal. Eviction is
      rename-based, so racing readers of one corrupt entry evict it
      {e exactly once} (the losers report {!Miss}), and an entry that a
      concurrent [put] renewed after the corrupt read was taken is
      restored, not deleted.

    {b One writer.} Outside tests, only {!Graph} writes entries: each
    cacheable node's result under the node's key, when the lookup missed.
    A cold run therefore writes one entry per store miss it counts, and no
    in-process memo reaches the disk.

    Type safety is the caller's contract: the store persists whatever was
    [put] under a key, and [find] returns it at whatever type the caller
    expects — exactly the [Marshal] contract. Keys must therefore encode
    everything the value depends on (the experiment layer digests the whole
    [(kind, model, config)] triple with {!key}). *)

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
    omitted and the running executable cannot be read to stamp entries. *)

val dir : t -> string
val version : t -> string

val find : t -> key:string -> 'a lookup

val put : t -> key:string -> 'a -> unit
(** Serialization failures (a value [Marshal] rejects, such as one
    holding a closure) and I/O failures (a full disk, a directory at the
    entry's path) degrade to a no-op: the result is simply not cached, and
    no temp file is left behind. *)

val key : 'a -> string
(** [key v] is the hex MD5 of [v]'s [Marshal] bytes under [No_sharing]:
    every cache and graph key is built here. [=]-equal values get one key
    however their parts are physically shared. Raises [Invalid_argument]
    on a closure: key inputs are plain (and acyclic) data. *)

val entry_path : t -> key:string -> string
(** Where [key]'s entry lives — exposed for tests and debugging. *)

val build_id : string -> string option
(** [build_id image] is the GNU build ID (the raw descriptor bytes) of an
    ELF64 little-endian image, of which [image] may be just a prefix: the
    first note named ["GNU"] with type 3 and a non-empty descriptor in a
    PT_NOTE segment whose bytes lie inside [image]. [None] for any other,
    truncated or corrupt input; it never raises. Exposed for tests. *)
