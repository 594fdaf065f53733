type t = { dir : string; version : string }

type 'a lookup = Hit of 'a | Miss | Evicted

let magic = "VPEXEC-CACHE 1"

let default_dir = "_cache"

(* The executable digest makes stale entries self-invalidating: a rebuilt
   binary reads a version mismatch, evicts and recomputes. It also makes
   [Marshal.Closures] payloads safe — they are only ever read back by the
   bit-identical binary that wrote them. An executable that cannot be
   digested has no such stamp, and any constant in its place would let a
   rebuilt binary accept an older one's entries, so it gets no store. *)
let default_version =
  lazy
    (match Digest.file Sys.executable_name with
    | d -> Printf.sprintf "%s-ocaml%s" (Digest.to_hex d) Sys.ocaml_version
    | exception Sys_error msg ->
        raise
          (Sys_error ("cannot digest the executable to stamp entries: " ^ msg)))

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    | Unix.Unix_error (e, _, _) ->
        raise
          (Sys_error
             (Printf.sprintf "cannot create cache directory %s: %s" d
                (Unix.error_message e)))
  end

let create ?version ~dir () =
  let version =
    match version with Some v -> v | None -> Lazy.force default_version
  in
  mkdir_p dir;
  if not (Sys.is_directory dir) then
    raise (Sys_error (Printf.sprintf "cache path %s is not a directory" dir));
  { dir; version }

let dir t = t.dir
let version t = t.version

let entry_path t ~key =
  Filename.concat t.dir (Digest.to_hex (Digest.string key) ^ ".bin")

(* Returns the file's bytes together with its inode: eviction uses the
   inode to recognize an entry that was atomically renewed (by a
   concurrent [put]) after we read the corrupt bytes, so it never unlinks
   a fresh entry on the strength of a stale read. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let ino = (Unix.fstat (Unix.descr_of_in_channel ic)).Unix.st_ino in
      (really_input_string ic (in_channel_length ic), ino))

(* [line_after s pos] returns [(line, pos_after_newline)]. *)
let line_after s pos =
  let nl = String.index_from s pos '\n' in
  (String.sub s pos (nl - pos), nl + 1)

exception Corrupt

let decode t ~key raw =
  try
    let m, pos = line_after raw 0 in
    if m <> magic then raise Corrupt;
    let v, pos = line_after raw pos in
    if v <> t.version then raise Corrupt;
    let k, pos = line_after raw pos in
    if k <> String.escaped key then raise Corrupt;
    let digest, pos = line_after raw pos in
    let payload = String.sub raw pos (String.length raw - pos) in
    if Digest.to_hex (Digest.string payload) <> digest then raise Corrupt;
    Marshal.from_string payload 0
  with _ -> raise Corrupt

let evict_seq = Atomic.make 0

(* Evict a corrupt entry {e exactly once} under concurrent readers and
   writers. Unlinking the path directly has two races: two readers that
   both saw the corrupt bytes would both count an eviction, and the slower
   one could unlink an entry a concurrent [put] had just renewed under the
   same name. Renaming the entry aside first fixes both: only one of any
   number of racing evictors wins the rename (losers get [ENOENT] and
   report a plain miss), and the inode check detects a renewed entry — we
   read corrupt bytes from one inode, but the path now holds another — and
   puts it back instead of deleting it. *)
let evict path ~ino =
  let tomb =
    Printf.sprintf "%s.evict.%d.%d" path (Unix.getpid ())
      (Atomic.fetch_and_add evict_seq 1)
  in
  match Unix.rename path tomb with
  | exception Unix.Unix_error (_, _, _) -> false  (* someone else evicted *)
  | () -> (
      match (Unix.stat tomb).Unix.st_ino = ino with
      | true | (exception Unix.Unix_error (_, _, _)) ->
          (try Sys.remove tomb with Sys_error _ -> ());
          true
      | false ->
          (* a concurrent [put] renewed the entry between our read and the
             rename: restore it rather than evict fresh data *)
          (try Unix.rename tomb path with Unix.Unix_error (_, _, _) -> ());
          false)

let find t ~key =
  let path = entry_path t ~key in
  match read_file path with
  | exception Sys_error _ | (exception Unix.Unix_error (_, _, _)) -> Miss
  | raw, ino -> (
      match decode t ~key raw with
      | v -> Hit v
      | exception Corrupt -> if evict path ~ino then Evicted else Miss)

let put t ~key v =
  match Marshal.to_string v [ Marshal.Closures ] with
  | exception _ -> ()
  | payload -> (
      try
        (* One exclusive create ([O_CREAT|O_EXCL]) that hands back the
           channel: the entry's bytes go to a file no one else has opened,
           never reopened or truncated. *)
        let tmp, oc =
          Filename.open_temp_file ~mode:[ Open_binary ] ~temp_dir:t.dir
            "vpexec" ".tmp"
        in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            output_string oc magic;
            output_char oc '\n';
            output_string oc t.version;
            output_char oc '\n';
            output_string oc (String.escaped key);
            output_char oc '\n';
            output_string oc (Digest.to_hex (Digest.string payload));
            output_char oc '\n';
            output_string oc payload);
        Sys.rename tmp (entry_path t ~key)
      with Sys_error _ -> ())
