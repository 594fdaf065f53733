(* Tests for Vp_exec: store round-trips and corruption recovery, the job
   graph (dedup, failure, eviction, parallel determinism), and the
   experiment-layer wiring. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* A throwaway directory per call; unique via pid + counter. *)
let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "vp_exec_test_%d_%d" (Unix.getpid ()) !n)

(* Small enough that a full experiment run is fast, large enough that the
   tables carry non-trivial numbers. *)
let small_config =
  { Vliw_vp.Config.default with trace_length = 2_000; monte_carlo_draws = 16 }

let small_models = [ Vp_workload.Spec_model.compress; Vp_workload.Spec_model.li ]

(* Worker count for the "parallel side" of the determinism tests. CI runs
   the suite once with VP_TEST_JOBS=1 (pure sequential, both sides on the
   reference path) and once with VP_TEST_JOBS=4. *)
let par_jobs =
  match Option.bind (Sys.getenv_opt "VP_TEST_JOBS") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> 4

let render ~exec () =
  let g = Vp_exec.Graph.create exec in
  let summaries =
    Vp_exec.Graph.await g
      (Vliw_vp.Experiments.run_all g ~config:small_config small_models)
  in
  Vliw_vp.Experiments.render_table2 summaries
  ^ Vliw_vp.Experiments.render_table3 summaries

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* --- Store --- *)

let test_store_round_trip () =
  let store = Vp_exec.Store.create ~dir:(fresh_dir ()) () in
  (match Vp_exec.Store.find store ~key:"k" with
  | Vp_exec.Store.Miss -> ()
  | _ -> Alcotest.fail "expected Miss on empty store");
  Vp_exec.Store.put store ~key:"k" [ 1; 2; 3 ];
  (match Vp_exec.Store.find store ~key:"k" with
  | Vp_exec.Store.Hit v -> Alcotest.(check (list int)) "value" [ 1; 2; 3 ] v
  | _ -> Alcotest.fail "expected Hit");
  (* A key containing newlines must not confuse the header. *)
  Vp_exec.Store.put store ~key:"line1\nline2" "payload";
  match Vp_exec.Store.find store ~key:"line1\nline2" with
  | Vp_exec.Store.Hit v -> checks "newline key" "payload" v
  | _ -> Alcotest.fail "expected Hit for newline key"

let test_store_put_failure_leaves_no_temp () =
  (* A non-empty directory where the entry should go: the rename fails,
     [put] stays a no-op, and the temp file it wrote is removed. *)
  let store = Vp_exec.Store.create ~dir:(fresh_dir ()) () in
  let path = Vp_exec.Store.entry_path store ~key:"k" in
  Unix.mkdir path 0o755;
  close_out (open_out (Filename.concat path "occupant"));
  Vp_exec.Store.put store ~key:"k" [ 1; 2; 3 ];
  checkb "directory still there" true (Sys.is_directory path);
  let temps =
    List.filter
      (fun f -> Filename.check_suffix f ".tmp")
      (Array.to_list (Sys.readdir (Vp_exec.Store.dir store)))
  in
  Alcotest.(check (list string)) "no temp file left" [] temps

let test_store_evicts_corrupt () =
  let store = Vp_exec.Store.create ~dir:(fresh_dir ()) () in
  Vp_exec.Store.put store ~key:"k" 42;
  let path = Vp_exec.Store.entry_path store ~key:"k" in
  let oc = open_out path in
  output_string oc "garbage, not a cache entry";
  close_out oc;
  (match Vp_exec.Store.find store ~key:"k" with
  | Vp_exec.Store.Evicted -> ()
  | _ -> Alcotest.fail "expected Evicted");
  checkb "entry removed" false (Sys.file_exists path);
  match Vp_exec.Store.find store ~key:"k" with
  | Vp_exec.Store.Miss -> ()
  | _ -> Alcotest.fail "expected Miss after eviction"

let test_store_concurrent_writers () =
  (* Two domains hammering the same key with puts while two more read:
     atomic rename puts mean no reader may ever observe a torn or corrupt
     entry, and the final state is a clean hit. *)
  let store = Vp_exec.Store.create ~dir:(fresh_dir ()) () in
  let value = List.init 1_000 (fun i -> i * 3) in
  let writer () =
    for _ = 1 to 50 do
      Vp_exec.Store.put store ~key:"shared" value
    done
  in
  let bad = Atomic.make 0 in
  let reader () =
    for _ = 1 to 200 do
      match Vp_exec.Store.find store ~key:"shared" with
      | Vp_exec.Store.Hit v -> if v <> value then Atomic.incr bad
      | Vp_exec.Store.Miss -> ()  (* before the first put lands *)
      | Vp_exec.Store.Evicted -> Atomic.incr bad
    done
  in
  List.iter Domain.join
    [
      Domain.spawn writer;
      Domain.spawn writer;
      Domain.spawn reader;
      Domain.spawn reader;
    ];
  checki "no torn or evicted observations" 0 (Atomic.get bad);
  match Vp_exec.Store.find store ~key:"shared" with
  | Vp_exec.Store.Hit v -> checkb "final hit intact" true (v = value)
  | _ -> Alcotest.fail "expected a final hit"

let test_store_concurrent_evict_once () =
  (* Racing readers of one corrupt entry: eviction must be counted exactly
     once per entry (the losers of the tombstone rename report Miss), and
     no reader may unlink a neighbour's fresh entry. *)
  let store = Vp_exec.Store.create ~dir:(fresh_dir ()) () in
  for round = 1 to 10 do
    let key = Printf.sprintf "corrupt-%d" round in
    Vp_exec.Store.put store ~key 42;
    let oc = open_out (Vp_exec.Store.entry_path store ~key) in
    output_string oc "garbage, not a cache entry";
    close_out oc;
    let evicted = Atomic.make 0 and go = Atomic.make false in
    let racer () =
      while not (Atomic.get go) do
        Domain.cpu_relax ()
      done;
      match Vp_exec.Store.find store ~key with
      | Vp_exec.Store.Evicted -> Atomic.incr evicted
      | Vp_exec.Store.Miss -> ()
      | Vp_exec.Store.Hit _ -> Alcotest.fail "hit on a corrupt entry"
    in
    let ds = List.init 4 (fun _ -> Domain.spawn racer) in
    Atomic.set go true;
    List.iter Domain.join ds;
    checki
      (Printf.sprintf "round %d: eviction counted once" round)
      1 (Atomic.get evicted);
    match Vp_exec.Store.find store ~key with
    | Vp_exec.Store.Miss -> ()
    | _ -> Alcotest.fail "expected Miss after eviction"
  done

let test_store_rejects_stale_version () =
  let dir = fresh_dir () in
  let old_store = Vp_exec.Store.create ~version:"v-old" ~dir () in
  Vp_exec.Store.put old_store ~key:"k" 42;
  let store = Vp_exec.Store.create ~version:"v-new" ~dir () in
  match Vp_exec.Store.find store ~key:"k" with
  | Vp_exec.Store.Evicted -> ()
  | _ -> Alcotest.fail "expected stale-version entry to be evicted"

let test_cli_context_unusable_cache_dir () =
  (* A cache path that exists but is a file: [Store.create] raises, and
     [Cli.context] must downgrade to a storeless context (with one stderr
     warning) instead of failing — or worse, failing once per job. *)
  let file = Filename.temp_file "vpexec" ".notadir" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let ctx =
        Vp_exec.Cli.context { Vp_exec.Cli.default with cache_dir = file }
      in
      checkb "store disabled" true (Option.is_none ctx.Vp_exec.Context.store))

let test_cli_context_undigestable_executable () =
  (* vliw_vp run from a deleted copy of itself (executed through
     /proc/self/fd/0, the copy's descriptor passed as its stdin) with an
     argv[0] that names no file: the runtime resolves [Sys.executable_name]
     to a path that cannot be read, so there is no executable digest to
     stamp entries with. The run must go storeless after one warning,
     never write entries under a constant stamp that a rebuilt binary
     would accept. *)
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  let vliw_vp =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      (Filename.concat "bin" "vliw_vp.exe")
  in
  let copy = Filename.concat dir "vliw_vp.exe" in
  Out_channel.with_open_gen
    [ Open_wronly; Open_creat; Open_trunc; Open_binary ]
    0o755 copy
    (fun oc ->
      Out_channel.output_string oc
        (In_channel.with_open_bin vliw_vp In_channel.input_all));
  let exe = Unix.openfile copy [ Unix.O_RDONLY ] 0 in
  Sys.remove copy;
  let cache = Filename.concat dir "cache" in
  let out = Filename.concat dir "out" and err = Filename.concat dir "err" in
  let open_w f = Unix.openfile f [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  let out_fd = open_w out and err_fd = open_w err in
  let pid =
    Unix.create_process "/proc/self/fd/0"
      [|
        "/nonexistent/vliw_vp.exe"; "table2"; "-b"; "compress"; "--cache-dir";
        cache;
      |]
      exe out_fd err_fd
  in
  List.iter Unix.close [ exe; out_fd; err_fd ];
  let code =
    match Unix.waitpid [] pid with _, Unix.WEXITED c -> c | _ -> -1
  in
  let read f = In_channel.with_open_bin f In_channel.input_all in
  checki "exit 0" 0 code;
  checkb "tables printed" true
    (String.starts_with ~prefix:"Table 2" (read out));
  (match String.split_on_char '\n' (read err) with
  | [ line; "" ] ->
      checkb line true
        (String.starts_with ~prefix:"warning: result cache disabled" line)
  | lines ->
      Alcotest.failf "expected one warning line, got %d" (List.length lines - 1));
  checkb "no cache directory created" false (Sys.file_exists cache)

(* The bench harness's parser refuses the [--jobs] values the CLI does,
   with the same range check, and keeps the flags it does not know. *)
let test_cli_parse_jobs_range () =
  let jobs args =
    match Vp_exec.Cli.parse args with
    | Ok (opts, rest) -> Ok (opts.Vp_exec.Cli.jobs, rest)
    | Error m -> Error m
  in
  let ok = Alcotest.(result (pair int (list string)) string) in
  Alcotest.check ok "1" (Ok (1, [ "--smoke" ])) (jobs [ "--jobs"; "1"; "--smoke" ]);
  Alcotest.check ok "max" (Ok (Vp_exec.Cli.max_jobs, []))
    (jobs [ "-j"; string_of_int Vp_exec.Cli.max_jobs ]);
  List.iter
    (fun n ->
      match jobs [ "--jobs"; n ] with
      | Ok _ -> Alcotest.failf "--jobs %s accepted" n
      | Error m ->
          checkb (Printf.sprintf "--jobs %s: %S names the range" n m) true
            (contains ~sub:"(supported: 1 to 127)" m))
    [ "0"; "-3"; "128" ];
  match jobs [ "--jobs"; "four" ] with
  | Ok _ -> Alcotest.fail "--jobs four accepted"
  | Error m -> checks "non-integer" "--jobs: not a positive integer: four" m

(* --- Store.build_id --- *)

let le n v = String.init n (fun i -> Char.chr ((v lsr (8 * i)) land 0xff))

let pad a s = s ^ String.make ((a - (String.length s mod a)) mod a) '\000'

(* One ELF note: namesz, descsz and type, then the name and the
   descriptor, each padded to the segment's alignment. *)
let note_bytes align (name, typ, desc) =
  le 4 (String.length name)
  ^ le 4 (String.length desc)
  ^ le 4 typ ^ pad align name ^ pad align desc

type segment = Notes of int * (string * int * string) list | Other of int

(* An ELF64 little-endian image: the 64-byte header, one 56-byte program
   header per segment, then each note segment's bytes at an offset aligned
   to its alignment. Non-note segments ([Other p_type]) cover no bytes. *)
let elf_image segments =
  let body_start = 64 + (56 * List.length segments) in
  let body = Buffer.create 256 in
  let phdr (typ, off, size, align) =
    le 4 typ ^ le 4 4 ^ le 8 off ^ le 8 0 ^ le 8 0 ^ le 8 size ^ le 8 size
    ^ le 8 align
  in
  let phdrs =
    List.map
      (function
        | Other typ -> phdr (typ, 0, 0, 8)
        | Notes (align, notes) ->
            let here = body_start + Buffer.length body in
            let gap = (align - (here mod align)) mod align in
            Buffer.add_string body (String.make gap '\000');
            let off = body_start + Buffer.length body in
            let bytes = String.concat "" (List.map (note_bytes align) notes) in
            Buffer.add_string body bytes;
            phdr (4, off, String.length bytes, align))
      segments
  in
  "\127ELF\002\001\001" ^ String.make 9 '\000' ^ le 2 3 ^ le 2 62 ^ le 4 1
  ^ le 8 0 ^ le 8 64 ^ le 8 0 ^ le 4 0 ^ le 2 64 ^ le 2 56
  ^ le 2 (List.length segments)
  ^ le 2 64 ^ le 2 0 ^ le 2 0 ^ String.concat "" phdrs ^ Buffer.contents body

(* An image holding one build ID among other notes (other owners, other
   GNU types, an empty type-3 descriptor), in one or two note segments of
   alignment 4 or 8, with non-note program headers mixed in. *)
let build_id_image_gen =
  QCheck.Gen.(
    let other_note =
      let* name = oneofl [ "GNU\000"; "Go\000"; "stapsdt\000"; "GNUX\000" ] in
      let* typ = oneofl [ 1; 3; 4; 5 ] in
      let* desc = string_size (0 -- 12) in
      (* a GNU type-3 note among the others has an empty descriptor *)
      let desc = if name = "GNU\000" && typ = 3 then "" else desc in
      return (name, typ, desc)
    in
    let* id = string_size (1 -- 32) in
    let* a1 = oneofl [ 4; 8 ] and* a2 = oneofl [ 4; 8 ] in
    let* before = list_size (0 -- 2) other_note
    and* after = list_size (0 -- 2) other_note
    and* elsewhere = list_size (0 -- 3) other_note in
    let holder align = Notes (align, before @ [ ("GNU\000", 3, id) ] @ after) in
    let* segments =
      oneofl
        [
          [ holder a1 ];
          [ Other 1; holder a1; Other 0x6474e551 ];
          [ Notes (a1, elsewhere); holder a2 ];
          [ holder a1; Other 1; Notes (a2, elsewhere) ];
        ]
    in
    return (id, elf_image segments))

let print_image (id, image) = Printf.sprintf "id=%S image=%S" id image

let prop_build_id_found =
  QCheck.Test.make ~name:"build_id reads the note" ~count:300
    (QCheck.make ~print:print_image build_id_image_gen)
    (fun (id, image) -> Vp_exec.Store.build_id image = Some id)

(* The first 4 KiB of the vliw_vp executable, as the store reads them. *)
let exe_prefix =
  lazy
    (let exe =
       Filename.concat
         (Filename.dirname (Filename.dirname Sys.executable_name))
         (Filename.concat "bin" "vliw_vp.exe")
     in
     In_channel.with_open_bin exe (fun ic ->
         really_input_string ic (min 4096 (in_channel_length ic))))

(* Every prefix of an image, and the image with random bytes overwritten,
   parse without raising; a prefix finds the whole ID or nothing. *)
let prop_build_id_total =
  QCheck.Test.make ~name:"build_id never raises" ~count:200
    (QCheck.make
       ~print:(fun ((id, image), _) -> print_image (id, image))
       QCheck.Gen.(
         pair
           (frequency
              [
                (4, build_id_image_gen);
                (1, return ("", Lazy.force exe_prefix));
              ])
           (list_size (1 -- 8) (pair nat char))))
    (fun ((id, image), writes) ->
      let prefixes_ok =
        List.for_all
          (fun n ->
            match Vp_exec.Store.build_id (String.sub image 0 n) with
            | None -> true
            | Some got -> id = "" || got = id)
          (List.init (String.length image + 1) Fun.id)
      in
      let corrupt = Bytes.of_string image in
      List.iter
        (fun (pos, c) -> Bytes.set corrupt (pos mod Bytes.length corrupt) c)
        writes;
      let corrupt = Bytes.to_string corrupt in
      ignore (Vp_exec.Store.build_id corrupt);
      List.iter
        (fun n -> ignore (Vp_exec.Store.build_id (String.sub corrupt 0 n)))
        (List.init (String.length corrupt + 1) Fun.id);
      prefixes_ok)

let test_build_id_rejects () =
  let id = "\001\002\003\004\005\006\007\008" in
  let image = elf_image [ Notes (4, [ ("GNU\000", 3, id) ]) ] in
  Alcotest.(check (option string)) "well-formed" (Some id)
    (Vp_exec.Store.build_id image);
  let len = String.length image in
  let ph = 64 and note = 64 + 56 in
  let patched name off size v =
    let b = Bytes.of_string image in
    (match size with
    | 1 -> Bytes.set_uint8 b off v
    | 2 -> Bytes.set_uint16_le b off v
    | 4 -> Bytes.set_int32_le b off (Int32.of_int v)
    | _ -> Bytes.set_int64_le b off (Int64.of_int v));
    Alcotest.(check (option string)) name None
      (Vp_exec.Store.build_id (Bytes.to_string b))
  in
  patched "e_phoff past the end" 0x20 8 len;
  patched "e_phoff negative" 0x20 8 min_int;
  patched "e_phnum past the end" 0x38 2 0xffff;
  patched "e_phnum one too many" 0x38 2 ((len - 64) / 56 + 1);
  patched "e_phentsize too small" 0x36 2 32;
  patched "p_offset past the end" (ph + 8) 8 (len + 1);
  patched "p_offset huge" (ph + 8) 8 max_int;
  patched "p_filesz past the end" (ph + 32) 8 (len - note + 1);
  patched "p_filesz huge" (ph + 32) 8 max_int;
  patched "namesz past the segment" note 4 0xffff_ffff;
  patched "descsz past the segment" (note + 4) 4 (String.length id + 1);
  patched "descsz huge" (note + 4) 4 0xffff_ffff;
  patched "empty descriptor" (note + 4) 4 0;
  patched "other note type" (note + 8) 4 4;
  patched "other owner" (note + 12) 1 (Char.code 'X');
  patched "ELF32" 4 1 1;
  patched "big-endian" 5 1 2;
  patched "not ELF" 1 1 (Char.code 'X');
  Alcotest.(check (option string)) "short header" None
    (Vp_exec.Store.build_id (String.sub image 0 63));
  Alcotest.(check (option string)) "empty" None (Vp_exec.Store.build_id "")

(* --- Graph --- *)

module G = Vp_exec.Graph

let test_graph_cycle_detection () =
  (* An edge that closes a loop must be rejected at declaration, with the
     offending key path, instead of deadlocking the drain. *)
  let g = G.create Vp_exec.Context.sequential in
  let a = G.node g ~cache:false ~key:"cyc-a" (fun _ -> 1) in
  let b =
    G.node g ~cache:false ~key:"cyc-b" ~deps:[ G.pack a ] (fun _ -> 2)
  in
  let c =
    G.node g ~cache:false ~key:"cyc-c" ~deps:[ G.pack b ] (fun _ -> 3)
  in
  (match G.add_dep g (G.pack a) ~on:(G.pack c) with
  | () -> Alcotest.fail "expected Cycle"
  | exception G.Cycle path ->
      checkb "path names the closing key" true (List.mem "cyc-c" path));
  (* The graph is untouched by the rejected edge and still drains. *)
  checki "graph still runs" 3 (G.await g c)

let test_graph_diamond_dedup () =
  (* Two reducers each declare the same shared leaf key: the second
     declaration must reuse the first node, so the payload runs once and
     the dedup is visible in telemetry. *)
  let progress = Vp_exec.Progress.silent () in
  let exec = Vp_exec.Context.create ~jobs:par_jobs ~progress () in
  let g = G.create exec in
  let runs = Atomic.make 0 in
  let shared () =
    G.node g ~cache:false ~key:"diamond-shared" (fun _ ->
        Atomic.incr runs;
        21)
  in
  let left = shared () in
  let right = shared () in
  let top =
    G.node g ~cache:false ~key:"diamond-top"
      ~deps:[ G.pack left; G.pack right ]
      (fun _ -> G.value left + G.value right)
  in
  checki "shared node computed once" 42 (G.await g top);
  checki "payload ran once" 1 (Atomic.get runs);
  checki "size counts distinct keys" 2 (G.size g);
  let snap = Vp_exec.Progress.snapshot progress in
  checki "dedup reported" 1 snap.deduped

let test_graph_failure_poisons_dependents_only () =
  let g = G.create (Vp_exec.Context.create ~jobs:2 ()) in
  let bad = G.node g ~cache:false ~key:"poison-src" (fun _ -> failwith "kaboom") in
  let dependent =
    G.node g ~cache:false ~key:"poison-dep" ~deps:[ G.pack bad ] (fun _ ->
        Alcotest.fail "poisoned payload must not run")
  in
  let bystander = G.node g ~cache:false ~key:"poison-free" (fun _ -> 7) in
  checki "independent node unaffected" 7 (G.await g bystander);
  (match G.await g dependent with
  | _ -> Alcotest.fail "expected Job_failed for poisoned dependent"
  | exception Vp_exec.Context.Job_failed { key; _ } ->
      checks "poisoned key" "poison-dep" key);
  match G.await g bad with
  | _ -> Alcotest.fail "expected Job_failed for the failing node"
  | exception Vp_exec.Context.Job_failed { message; _ } ->
      checkb "diagnostic mentions the exception" true
        (contains ~sub:"kaboom" message)

let test_graph_await_after_failure () =
  (* Awaiting a node whose dependency failed must return the failure
     promptly — not hang — and a second await must report the same error.
     Both matter to the serve daemon, which keeps one long-lived graph and
     may see the same poisoned node awaited by many requests. *)
  let g = G.create (Vp_exec.Context.create ~jobs:2 ()) in
  let bad = G.node g ~cache:false ~key:"afail-src" (fun _ -> failwith "boom") in
  let dep =
    G.node g ~cache:false ~key:"afail-dep" ~deps:[ G.pack bad ] (fun _ ->
        Alcotest.fail "poisoned payload must not run")
  in
  let t0 = Unix.gettimeofday () in
  let first =
    match G.await g dep with
    | _ -> Alcotest.fail "expected Job_failed"
    | exception Vp_exec.Context.Job_failed { key; message; _ } ->
        checks "failed key" "afail-dep" key;
        message
  in
  checkb "failure reported promptly" true (Unix.gettimeofday () -. t0 < 5.0);
  (match G.await g dep with
  | _ -> Alcotest.fail "second await must also fail"
  | exception Vp_exec.Context.Job_failed { message; _ } ->
      checks "same diagnostic on repeated await" first message);
  (* a completion subscription on the poisoned node fires immediately *)
  let fired = ref None in
  G.on_complete g dep (fun r -> fired := Some r);
  match !fired with
  | Some (Error msg) ->
      checkb "callback carries the diagnostic" true (contains ~sub:"boom" msg)
  | Some (Ok _) -> Alcotest.fail "poisoned node reported Ok"
  | None -> Alcotest.fail "on_complete did not fire for a finished node"

(* A node declared onto a dependency that has already failed is poisoned
   at declaration and stays so: its payload never runs, and [await]
   reports the dependency's failure. *)
let test_graph_declared_onto_failure () =
  let g = G.create (Vp_exec.Context.create ~jobs:1 ()) in
  let bad = G.node g ~cache:false ~key:"late-src" (fun _ -> failwith "boom") in
  (match G.await g bad with
  | _ -> Alcotest.fail "expected Job_failed for the failing node"
  | exception Vp_exec.Context.Job_failed _ -> ());
  let dep =
    G.node g ~cache:false ~key:"late-dep" ~deps:[ G.pack bad ] (fun _ ->
        Alcotest.fail "poisoned payload must not run")
  in
  match G.await g dep with
  | _ -> Alcotest.fail "expected Job_failed for the late dependent"
  | exception Vp_exec.Context.Job_failed { key; message; _ } ->
      checks "failed key" "late-dep" key;
      checks "diagnostic names the failed dependency"
        "poisoned: dependency late-src failed: Failure(\"boom\")" message

let test_graph_node_cache_lru () =
  (* With a node cap, completed cold nodes are evicted coldest-first and
     the retained count stays near the cap; an evicted key's re-declaration
     gets a fresh node (recompute or store hit), and recently-touched keys
     survive. *)
  let progress = Vp_exec.Progress.silent () in
  let g = G.create (Vp_exec.Context.create ~progress ()) in
  G.set_node_cap g (Some 10);
  let declare i =
    G.node g ~cache:false ~key:(Printf.sprintf "lru-%d" i) (fun _ -> i)
  in
  for i = 0 to 49 do
    ignore (G.await g (declare i))
  done;
  checkb "retained bounded by cap" true (G.retained g <= 10);
  let snap = Vp_exec.Progress.snapshot progress in
  checkb "evictions counted" true (snap.nodes_evicted >= 40 - 10);
  (* re-declaring an evicted key yields a live node, and its payload
     reruns (cache:false, result was only graph-resident) *)
  let reran = Atomic.make false in
  let n =
    G.node g ~cache:false ~key:"lru-0" (fun _ ->
        Atomic.set reran true;
        0)
  in
  checki "evicted key recomputes" 0 (G.await g n);
  checkb "payload ran again" true (Atomic.get reran);
  (* a node kept hot by dedup re-declarations outlives an eviction wave
     of colder neighbours: its payload never reruns *)
  let hot_runs = Atomic.make 0 in
  let declare_hot () =
    G.node g ~cache:false ~key:"lru-hot" (fun _ ->
        Atomic.incr hot_runs;
        -1)
  in
  ignore (G.await g (declare_hot ()));
  for i = 100 to 140 do
    ignore (G.await g (declare i));
    ignore (declare_hot ())
  done;
  ignore (G.await g (declare_hot ()));
  checki "hot node never recomputed" 1 (Atomic.get hot_runs);
  (* uncapped graphs never evict *)
  G.set_node_cap g None;
  let before = (Vp_exec.Progress.snapshot progress).nodes_evicted in
  for i = 200 to 260 do
    ignore (G.await g (declare i))
  done;
  checki "no evictions without a cap" before
    (Vp_exec.Progress.snapshot progress).nodes_evicted

let test_graph_find () =
  (* [find] is [node]'s dedup branch without a declaration: a miss creates
     no node and counts nothing, a hit returns the declared node and
     counts one dedup, a key the node cap evicted misses, and a lookup
     touches the LRU stamp like a dedup does. *)
  let progress = Vp_exec.Progress.silent () in
  let g = G.create (Vp_exec.Context.create ~progress ()) in
  let deduped () = (Vp_exec.Progress.snapshot progress).deduped in
  let find key : int G.node option = G.find g ~key in
  checkb "miss on an empty graph" true (Option.is_none (find "find-a"));
  checki "a miss declares nothing" 0 (G.size g);
  checki "nor retains anything" 0 (G.retained g);
  checki "nor counts a dedup" 0 (deduped ());
  let runs = Atomic.make 0 in
  let n =
    G.node g ~cache:false ~key:"find-a" (fun _ ->
        Atomic.incr runs;
        7)
  in
  (match find "find-a" with
  | Some m ->
      checkb "a hit returns the declared node" true (m == n);
      checki "an unfinished hit awaits the node's value" 7 (G.await g m)
  | None -> Alcotest.fail "declared key missed");
  checki "one dedup per hit" 1 (deduped ());
  checki "a hit declares nothing" 1 (G.size g);
  (match find "find-a" with
  | Some m -> checki "a finished hit holds the value" 7 (G.value m)
  | None -> Alcotest.fail "finished key missed");
  checki "payload ran once" 1 (Atomic.get runs);
  (* a node kept hot by lookups alone outlives waves of colder nodes *)
  G.set_node_cap g (Some 10);
  let fill i =
    ignore
      (G.await g
         (G.node g ~cache:false ~key:(Printf.sprintf "find-fill-%d" i)
            (fun _ -> i)))
  in
  ignore (G.await g (G.node g ~cache:false ~key:"find-hot" (fun _ -> -1)));
  for i = 0 to 40 do
    fill i;
    ignore (find "find-hot")
  done;
  checkb "evictions happened" true
    ((Vp_exec.Progress.snapshot progress).nodes_evicted > 0);
  checkb "an evicted key misses" true (Option.is_none (find "find-a"));
  checkb "an evicted fill misses" true (Option.is_none (find "find-fill-0"));
  checkb "a looked-up node stays" true (Option.is_some (find "find-hot"))

let test_graph_version_bump () =
  (* A rebuilt binary stamps the store with a new version. A node stored
     under the old one is recomputed, not resurrected: its payload runs
     and a miss is counted. The next run at the new version reads the
     recomputed entry back. *)
  let dir = fresh_dir () in
  let run version =
    let store = Vp_exec.Store.create ~version ~dir () in
    let progress = Vp_exec.Progress.silent () in
    let g = G.create (Vp_exec.Context.create ~store ~progress ()) in
    let runs = Atomic.make 0 in
    let n =
      G.node g ~key:"bump-node" (fun () ->
          Atomic.incr runs;
          [ 1; 2; 3 ])
    in
    Alcotest.(check (list int)) (version ^ " value") [ 1; 2; 3 ] (G.await g n);
    (Atomic.get runs, Vp_exec.Progress.snapshot progress)
  in
  let runs, snap = run "v-old" in
  checki "v-old computes" 1 runs;
  checki "v-old misses" 1 snap.cache_misses;
  let runs, snap = run "v-new" in
  checki "v-new payload reruns" 1 runs;
  checki "v-new counts a miss" 1 snap.cache_misses;
  checki "v-new reads no stale hit" 0 snap.cache_hits;
  let runs, snap = run "v-new" in
  checki "second v-new run computes nothing" 0 runs;
  checki "second v-new run hits" 1 snap.cache_hits;
  checki "second v-new run misses nothing" 0 snap.cache_misses

(* A one-job drain runs its worker loop inline: every payload runs in the
   awaiting domain, so a drain that spawned a domain at one job fails. *)
let test_graph_one_job_inline () =
  let g = G.create (Vp_exec.Context.create ~jobs:1 ()) in
  let self () = (Domain.self () :> int) in
  let leaves =
    List.init 4 (fun i ->
        G.node g ~cache:false ~key:(Printf.sprintf "inline-%d" i) self)
  in
  let top =
    G.node g ~cache:false ~key:"inline-top" ~deps:(List.map G.pack leaves)
      (fun () -> self () :: List.map G.value leaves)
  in
  List.iter
    (checki "payload ran in the awaiting domain" (self ()))
    (G.await g top)

(* One graph, a diamond next to a chain, run every way the worker loop
   runs: drained at one job and at four, and on resident workers at one
   and four whose stop request arrives while the diamond is still queued
   behind its gated root. Each way finishes every node, runs each payload
   exactly once and returns the same values. *)
let test_graph_one_loop_every_way () =
  let run ~jobs ~resident =
    let g = G.create (Vp_exec.Context.create ~jobs ()) in
    let runs = Array.init 8 (fun _ -> Atomic.make 0) in
    let gate = Atomic.make (not resident) in
    let node i deps f =
      G.node g ~cache:false
        ~key:(Printf.sprintf "loop-%d" i)
        ~deps:(List.map G.pack deps)
        (fun () ->
          Atomic.incr runs.(i);
          f ())
    in
    let d0 =
      node 0 [] (fun () ->
          while not (Atomic.get gate) do
            Domain.cpu_relax ()
          done;
          1)
    in
    let d1 = node 1 [ d0 ] (fun () -> G.value d0 + 10) in
    let d2 = node 2 [ d0 ] (fun () -> G.value d0 * 3) in
    let d3 = node 3 [ d1; d2 ] (fun () -> G.value d1 + G.value d2) in
    let c4 = node 4 [] (fun () -> 2) in
    let c5 = node 5 [ c4 ] (fun () -> G.value c4 * 5) in
    let c6 = node 6 [ c5 ] (fun () -> G.value c5 - 1) in
    let c7 = node 7 [ c6 ] (fun () -> G.value c6 * G.value c6) in
    if resident then begin
      G.start_workers g;
      let opener =
        Domain.spawn (fun () ->
            Unix.sleepf 0.05;
            Atomic.set gate true)
      in
      G.stop_workers g;
      Domain.join opener
    end
    else G.drain g;
    let label =
      Printf.sprintf "jobs %d%s" jobs (if resident then ", resident" else "")
    in
    Array.iteri
      (fun i n ->
        checki (Printf.sprintf "%s: node %d ran once" label i) 1 (Atomic.get n))
      runs;
    List.map G.value [ d0; d1; d2; d3; c4; c5; c6; c7 ]
  in
  List.iter
    (fun (jobs, resident) ->
      Alcotest.(check (list int))
        "every node finished with its value"
        [ 1; 11; 3; 14; 2; 10; 9; 81 ]
        (run ~jobs ~resident))
    [ (1, false); (4, false); (1, true); (4, true) ]

let test_graph_suite_parallel_determinism () =
  (* The full suite path: several experiments declared on one shared
     graph, drained barrier-free. jobs=1 (declaration-order drain) is the
     reference; jobs=4 must render byte-identically. *)
  let render ~exec =
    let module E = Vliw_vp.Experiments in
    let g = G.create exec in
    let summaries_n = E.run_all g ~config:small_config small_models in
    let table4_n = E.table4 g ~config:small_config small_models in
    Vliw_vp.Experiments.render_table2 (G.await g summaries_n)
    ^ Vliw_vp.Experiments.render_table4 (G.await g table4_n)
  in
  let seq = render ~exec:Vp_exec.Context.sequential in
  let par = render ~exec:(Vp_exec.Context.create ~jobs:par_jobs ()) in
  checkb "non-empty render" true (String.length seq > 0);
  checks "suite graph jobs=1 = jobs=4" seq par

(* --- Experiment wiring --- *)

let test_experiments_parallel_determinism () =
  let seq = render ~exec:Vp_exec.Context.sequential () in
  let par = render ~exec:(Vp_exec.Context.create ~jobs:par_jobs ()) () in
  checks "jobs=1 = jobs=4" seq par

let test_hardware_validation_parallel_determinism () =
  (* the hardware-validation sweep declares one graph job per benchmark;
     its rendered table must be byte-identical to a sequential run *)
  let table ~exec =
    let g = G.create exec in
    Vliw_vp.Trace_sim.render
      (G.await g
         (Vliw_vp.Experiments.hardware_validation g ~config:small_config
            ~executions:400 small_models))
  in
  let seq = table ~exec:Vp_exec.Context.sequential in
  let par = table ~exec:(Vp_exec.Context.create ~jobs:par_jobs ()) in
  checkb "non-empty table" true (String.length seq > 0);
  checks "hardware table jobs=1 = jobs=4" seq par

(* The artifacts that print the static-recovery comparison — [compare],
   the [all] suite (comparison leaves deduped onto run_all's summaries),
   and the report (recovery-sensitivity points deduped onto them too) —
   render byte-identically storeless, against a cold store at jobs=1 and
   against the warm store at jobs=N. The graph path also agrees with
   {!Experiments.comparison_of} applied to each benchmark's pipeline
   directly. *)
let test_comparison_artifacts_identity () =
  let model = List.hd small_models in
  let render ~exec =
    let module E = Vliw_vp.Experiments in
    let g = G.create exec in
    let summaries_n = E.run_all g ~config:small_config small_models in
    let comparison_n = E.comparison g ~config:small_config small_models in
    let recovery_n = E.recovery_sensitivity g ~config:small_config model in
    let summaries = G.await g summaries_n in
    let suite =
      Vliw_vp.Experiments.render_table2 summaries
      ^ Vliw_vp.Experiments.render_comparison (G.await g comparison_n)
      ^ Vliw_vp.Experiments.render_recovery_sensitivity
          ~bench:model.Vp_workload.Spec_model.name (G.await g recovery_n)
    in
    let compare =
      let g = G.create exec in
      Vliw_vp.Experiments.render_comparison ~format:`Csv
        (G.await g (E.comparison g ~config:small_config small_models))
    in
    let report =
      Vliw_vp.Report.generate ~config:small_config ~exec ~models:small_models
        ()
    in
    (suite, compare, report)
  in
  let check label (s1, c1, r1) (s2, c2, r2) =
    checks (label ^ ": suite") s1 s2;
    checks (label ^ ": compare") c1 c2;
    checks (label ^ ": report") r1 r2
  in
  let ((_, reference_compare, _) as reference) =
    render ~exec:Vp_exec.Context.sequential
  in
  let direct =
    Vliw_vp.Experiments.render_comparison ~format:`Csv
      (List.map
         (fun (m : Vp_workload.Spec_model.t) ->
           ( m.name,
             Vliw_vp.Experiments.comparison_of
               (Vliw_vp.Pipeline.run ~config:small_config m) ))
         small_models)
  in
  checks "graph comparison = comparison_of" direct reference_compare;
  let store = Vp_exec.Store.create ~dir:(fresh_dir ()) () in
  check "cold store, jobs=1" reference
    (render ~exec:(Vp_exec.Context.create ~store ()));
  let progress = Vp_exec.Progress.silent () in
  check "warm store, jobs=N" reference
    (render ~exec:(Vp_exec.Context.create ~store ~jobs:par_jobs ~progress ()));
  checki "warm store misses" 0
    (Vp_exec.Progress.snapshot progress).cache_misses

let test_cache_round_trip () =
  let store = Vp_exec.Store.create ~dir:(fresh_dir ()) () in
  let cold_progress = Vp_exec.Progress.silent () in
  let cold =
    render
      ~exec:(Vp_exec.Context.create ~store ~progress:cold_progress ())
      ()
  in
  let cold_snap = Vp_exec.Progress.snapshot cold_progress in
  checki "cold misses" (List.length small_models) cold_snap.cache_misses;
  checki "cold hits" 0 cold_snap.cache_hits;
  let warm_progress = Vp_exec.Progress.silent () in
  let warm =
    render
      ~exec:(Vp_exec.Context.create ~store ~progress:warm_progress ())
      ()
  in
  let warm_snap = Vp_exec.Progress.snapshot warm_progress in
  checki "warm misses" 0 warm_snap.cache_misses;
  checki "warm hits" (List.length small_models) warm_snap.cache_hits;
  checks "cold = warm output" cold warm

let test_cache_corruption_recovery () =
  let store = Vp_exec.Store.create ~dir:(fresh_dir ()) () in
  let reference =
    render ~exec:(Vp_exec.Context.create ~store ()) ()
  in
  (* Smash every entry; the rerun must evict, recompute and still agree. *)
  Array.iter
    (fun name ->
      if Filename.check_suffix name ".bin" then begin
        let oc = open_out (Filename.concat (Vp_exec.Store.dir store) name) in
        output_string oc "\x00\x01corrupt";
        close_out oc
      end)
    (Sys.readdir (Vp_exec.Store.dir store));
  let progress = Vp_exec.Progress.silent () in
  let recovered =
    render ~exec:(Vp_exec.Context.create ~store ~progress ()) ()
  in
  let snap = Vp_exec.Progress.snapshot progress in
  checkb "evictions reported" true (snap.corrupt_evicted >= 1);
  checki "no hits from corrupt entries" 0 snap.cache_hits;
  checks "output unaffected" reference recovered

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "vp_exec"
    [
      ( "store",
        [
          tc "round trip" test_store_round_trip;
          tc "failed put leaves no temp file"
            test_store_put_failure_leaves_no_temp;
          tc "evicts corrupt" test_store_evicts_corrupt;
          tc "concurrent writers" test_store_concurrent_writers;
          tc "concurrent evict once" test_store_concurrent_evict_once;
          tc "rejects stale version" test_store_rejects_stale_version;
          tc "unusable cache dir downgrades" test_cli_context_unusable_cache_dir;
          tc "cli parse: --jobs range" test_cli_parse_jobs_range;
          tc "undigestable executable downgrades"
            test_cli_context_undigestable_executable;
          QCheck_alcotest.to_alcotest prop_build_id_found;
          QCheck_alcotest.to_alcotest prop_build_id_total;
          tc "build_id rejects out-of-range fields" test_build_id_rejects;
        ] );
      ( "graph",
        [
          tc "cycle detection" test_graph_cycle_detection;
          tc "diamond dedup" test_graph_diamond_dedup;
          tc "failure poisons dependents only"
            test_graph_failure_poisons_dependents_only;
          tc "await after failure" test_graph_await_after_failure;
          tc "declared onto a failed dependency"
            test_graph_declared_onto_failure;
          tc "node-cache LRU" test_graph_node_cache_lru;
          tc "find: lookup without declaration" test_graph_find;
          tc "stored node recomputes after a version bump"
            test_graph_version_bump;
          tc "suite parallel determinism" test_graph_suite_parallel_determinism;
          tc "one-job drain runs inline" test_graph_one_job_inline;
          tc "one loop: drains and resident workers"
            test_graph_one_loop_every_way;
        ] );
      ( "experiments",
        [
          tc "parallel determinism" test_experiments_parallel_determinism;
          tc "hardware validation parallel determinism"
            test_hardware_validation_parallel_determinism;
          tc "comparison artifacts identity" test_comparison_artifacts_identity;
          tc "cache round trip" test_cache_round_trip;
          tc "corruption recovery" test_cache_corruption_recovery;
        ] );
    ]
