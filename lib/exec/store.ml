type t = { dir : string; version : string }

type 'a lookup = Hit of 'a | Miss | Evicted

let magic = "VPEXEC-CACHE 1"

let default_dir = "_cache"

(* [build_id image] reads the GNU build ID out of [image], a prefix of an
   ELF64 little-endian executable: the descriptor of the first note named
   "GNU" with type 3 (NT_GNU_BUILD_ID) and a non-empty descriptor, searched
   in program-header order through the PT_NOTE segments. Every offset, size
   and count is checked against [image] before it is used, so any other,
   truncated or corrupt input yields [None], never an exception. *)
let build_id image =
  let len = String.length image in
  let ( let* ) = Option.bind in
  (* The unsigned little-endian field of [size] bytes at [off], when it
     lies in [image] and its value is at most [len]. Each field read here
     is an offset, a size, a count or a small tag, so a larger value is
     out of bounds (or not a tag we look for) anyway. *)
  let field off size =
    if off < 0 || size > len - off then None
    else
      let v =
        match size with
        | 2 -> Int64.of_int (String.get_uint16_le image off)
        | 4 ->
            Int64.logand
              (Int64.of_int32 (String.get_int32_le image off))
              0xFFFF_FFFFL
        | _ -> String.get_int64_le image off
      in
      if Int64.compare v 0L >= 0 && Int64.compare v (Int64.of_int len) <= 0
      then Some (Int64.to_int v)
      else None
  in
  let align_up n a = (n + a - 1) land lnot (a - 1) in
  (* The notes in [pos, stop): 12 bytes of namesz, descsz and type, then
     the name and the descriptor, each padded to [a]. *)
  let rec note pos stop a =
    if pos + 12 > stop then None
    else
      let* namesz = field pos 4 in
      let* descsz = field (pos + 4) 4 in
      let name = pos + 12 in
      let desc = name + align_up namesz a in
      if desc + descsz > stop then None
      else if
        namesz = 4
        && field (pos + 8) 4 = Some 3
        && descsz > 0
        && String.sub image name 4 = "GNU\000"
      then Some (String.sub image desc descsz)
      else note (desc + align_up descsz a) stop a
  in
  let* () =
    if len >= 64 && String.sub image 0 6 = "\127ELF\002\001" then Some ()
    else None
  in
  let* phoff = field 0x20 8 in
  let* phentsize = field 0x36 2 in
  let* phnum = field 0x38 2 in
  if phentsize < 56 || phnum > (len - phoff) / phentsize then None
  else
    let rec segment i =
      if i = phnum then None
      else
        let ph = phoff + (i * phentsize) in
        let id =
          match field ph 4 with
          | Some 4 (* PT_NOTE *) ->
              let* off = field (ph + 8) 8 in
              let* filesz = field (ph + 32) 8 in
              let align = if field (ph + 48) 8 = Some 8 then 8 else 4 in
              if filesz > len - off then None
              else note off (off + filesz) align
          | _ -> None
        in
        match id with Some _ -> id | None -> segment (i + 1)
    in
    segment 0

(* The notes of a linked executable sit just after its program headers;
   this prefix holds them with room to spare. *)
let prefix_bytes = 4096

let hex s =
  String.concat ""
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (String.to_seq s)))

(* The stamp makes stale entries self-invalidating: a rebuilt binary reads
   a version mismatch, evicts and recomputes, so a payload is only ever
   read back by the binary that wrote it. A native executable's stamp is
   the build ID the linker hashed over the whole linked output, code and
   data alike, read from the first few KiB instead of digesting every
   byte. Without one (bytecode, whose [-custom] images append their code
   after linking; a link with [--build-id=none]; a non-ELF platform) the
   stamp is the MD5 of the whole file. An executable that cannot be read
   has no stamp, and any constant in its place would let a rebuilt binary
   accept an older one's entries, so it gets no store. *)
let stamp exe =
  let id =
    match Sys.backend_type with
    | Native ->
        Option.bind
          (In_channel.with_open_bin exe (fun ic ->
               In_channel.really_input_string ic
                 (min prefix_bytes (in_channel_length ic))))
          build_id
    | Bytecode | Other _ -> None
  in
  match id with
  | Some id -> Printf.sprintf "build-id-%s-ocaml%s" (hex id) Sys.ocaml_version
  | None ->
      Printf.sprintf "%s-ocaml%s"
        (Digest.to_hex (Digest.file exe))
        Sys.ocaml_version

let default_version =
  lazy
    (match stamp Sys.executable_name with
    | v -> v
    | exception Sys_error msg ->
        raise
          (Sys_error ("cannot read the executable to stamp entries: " ^ msg)))

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

(* [No_sharing] makes the bytes a function of the value's structure alone:
   default flags also encode which parts are physically shared, so an
   [=]-equal copy built field by field would get a different key. *)
let key v = Digest.to_hex (Digest.string (Marshal.to_string v [ No_sharing ]))

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
  match Marshal.to_string v [] with
  | exception _ -> ()
  | payload -> (
      (* One exclusive create ([O_CREAT|O_EXCL]) that hands back the
         channel: the entry's bytes go to a file no one else has opened,
         never reopened or truncated. A failed write (the flush on
         [close_out] included) or rename removes it again. *)
      match
        Filename.open_temp_file ~mode:[ Open_binary ] ~temp_dir:t.dir "vpexec"
          ".tmp"
      with
      | exception Sys_error _ -> ()
      | tmp, oc -> (
          try
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
                output_string oc payload;
                close_out oc);
            Sys.rename tmp (entry_path t ~key)
          with Sys_error _ -> ( try Sys.remove tmp with Sys_error _ -> ())))

let cached ?store memo ~key compute =
  match store with
  | None -> Vp_util.Memo.find_or_add memo key compute
  | Some t ->
      Vp_util.Memo.find_or_add memo key
        ~load:(fun () ->
          match find t ~key with Hit v -> Some v | Miss | Evicted -> None)
        (fun () ->
          let v = compute () in
          put t ~key v;
          v)
