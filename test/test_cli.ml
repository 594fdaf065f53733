(* Subprocess tests for the vliw_vp executable: an unknown subcommand or
   malformed flag must produce exactly one diagnostic line on stderr (no
   usage dump) and a non-zero exit; [--telemetry] reports its sections and
   the suite's exact job counts; and fresh processes at [--jobs 4] print
   the sequential bytes. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* The driver binary, located relative to the test executable inside
   _build (test/foo.exe -> bin/vliw_vp.exe). *)
let vliw_vp =
  let d = Filename.dirname Sys.executable_name in
  Filename.concat (Filename.dirname d) (Filename.concat "bin" "vliw_vp.exe")

let read_all fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
  in
  go ();
  Buffer.contents buf

let wait_exit pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> code
  | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
      Alcotest.failf "vliw_vp killed by signal %d" n

(* Run the driver, return (exit code, stderr). stdout goes to /dev/null. *)
let run args =
  let err_r, err_w = Unix.pipe ~cloexec:false () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process vliw_vp
      (Array.of_list (vliw_vp :: args))
      Unix.stdin devnull err_w
  in
  Unix.close err_w;
  Unix.close devnull;
  let stderr_out = read_all err_r in
  Unix.close err_r;
  let code = wait_exit pid in
  (code, stderr_out)

(* Run vliw_vp (or [exe]), return (exit code, stdout). stderr goes to
   /dev/null. *)
let run_stdout ?(exe = vliw_vp) args =
  let out_r, out_w = Unix.pipe ~cloexec:false () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: args))
      Unix.stdin out_w devnull
  in
  Unix.close out_w;
  Unix.close devnull;
  let stdout_out = read_all out_r in
  Unix.close out_r;
  let code = wait_exit pid in
  (code, stdout_out)

let nonempty_lines s =
  List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s)

let check_one_line_error name args ~expect_sub =
  let code, err = run args in
  checkb (name ^ ": non-zero exit") true (code <> 0);
  let lines = nonempty_lines err in
  checki (name ^ ": exactly one stderr line") 1 (List.length lines);
  let line = List.hd lines in
  checkb
    (Printf.sprintf "%s: diagnostic mentions %S (got %S)" name expect_sub line)
    true
    (let n = String.length expect_sub and m = String.length line in
     let rec go i = i + n <= m && (String.sub line i n = expect_sub || go (i + 1)) in
     go 0)

let test_unknown_subcommand () =
  check_one_line_error "unknown subcommand" [ "frobnicate" ]
    ~expect_sub:"unknown command"

let test_unknown_flag () =
  check_one_line_error "unknown flag" [ "table2"; "--bogus-flag" ]
    ~expect_sub:"unknown option"

let test_missing_flag_value () =
  check_one_line_error "missing flag value" [ "table2"; "--width" ]
    ~expect_sub:"needs an argument"

let test_bad_flag_value () =
  check_one_line_error "malformed flag value"
    [ "table2"; "--width"; "not-a-number" ] ~expect_sub:"invalid value"

(* A width the machine has no preset for is a usage error naming the
   widths it does model, not an exception from every job. *)
let test_unsupported_width () =
  List.iter
    (fun (args, w) ->
      check_one_line_error
        ("unsupported width: " ^ String.concat " " args)
        args
        ~expect_sub:
          (Printf.sprintf
             "invalid value '%d', unsupported width %d (supported: 2, 4, 8, 16)"
             w w))
    [
      ([ "table2"; "-w"; "3" ], 3);
      ([ "all"; "--width"; "64"; "--no-cache" ], 64);
    ]

let test_valid_command_still_works () =
  let code, err = run [ "example" ] in
  checki "exit 0" 0 code;
  checki "no stderr" 0 (List.length (nonempty_lines err))

let contains_sub line expect_sub =
  let n = String.length expect_sub and m = String.length line in
  let rec go i =
    i + n <= m && (String.sub line i n = expect_sub || go (i + 1))
  in
  go 0

(* [--telemetry -] must report the bit-parallel scenario engine's lane
   occupancy in a [spec_eval] section: how many lane words ran and how
   many vectors they carried. *)
let test_telemetry_spec_eval () =
  let code, err = run [ "table2"; "--telemetry"; "-" ] in
  checki "exit 0" 0 code;
  List.iter
    (fun field ->
      checkb
        (Printf.sprintf "telemetry has %S" field)
        true (contains_sub err field))
    [
      "\"spec_eval\"";
      "\"bitset_words\"";
      "\"bitset_vectors\"";
      "\"vectors_per_word\"";
    ]

(* The hardware-validation run must surface the trace simulator's counters
   as a [trace_sim] section: one benchmark is exactly one run. *)
let test_telemetry_trace_sim () =
  let code, err =
    run [ "hardware"; "-b"; "compress"; "--telemetry"; "-" ]
  in
  checki "exit 0" 0 code;
  List.iter
    (fun field ->
      checkb
        (Printf.sprintf "telemetry has %S" field)
        true (contains_sub err field))
    [
      "\"trace_sim\": {\"runs\": 1,";
      "\"memo_hits\"";
      "\"engine_replays\"";
      "\"alias_evictions\"";
    ];
  (* the run simulated something: at least one block execution reached the
     engine *)
  checkb "engine replays recorded" true
    (not (contains_sub err "\"engine_replays\": 0,"))

(* The cold suite's job-graph shape, counted exactly: 45 jobs (run_all,
   table4, regions and overlap at 9 each, plus 8 comparison leaves and
   their reducer), 16 in-flight dedups (table4's narrow points and the
   comparison leaves' summary dependencies onto run_all's jobs), and 24
   whole-run memo hits: the region and overlap base runs that repeat
   run_all's pipelines (16), plus one per comparison leaf, which reads its
   benchmark's pipeline through the memo after the summary job (8). The
   24 misses are the only pipelines computed. The comparison memo's
   telemetry is gone. *)
let test_telemetry_suite_counts () =
  let code, err =
    run
      [
        "all"; "--seed"; "12345"; "--jobs"; "1"; "--no-cache"; "--telemetry";
        "-";
      ]
  in
  checki "exit 0" 0 code;
  List.iter
    (fun field ->
      checkb
        (Printf.sprintf "telemetry has %S" field)
        true (contains_sub err field))
    [
      "\"done\": 45,";
      "\"deduped\": 16,";
      "\"run_memo_hits\": 24,";
      "\"run_memo_misses\": 24}";
    ];
  checkb "no comparison memo section" false (contains_sub err "comparison")

(* Several worker domains run the scenario engine and the trace
   simulator from inside concurrent graph jobs; each fresh process must
   finish and print the sequential bytes. *)
let test_parallel_sweep_identity () =
  let sweep jobs =
    run_stdout
      [
        "ablate"; "--sweep"; "ccewidth"; "-b"; "compress"; "--jobs";
        string_of_int jobs; "--no-cache";
      ]
  in
  let code, reference = sweep 1 in
  checki "jobs 1 exit 0" 0 code;
  for i = 1 to 5 do
    let code, out = sweep 4 in
    checki (Printf.sprintf "jobs 4 run %d exit 0" i) 0 code;
    Alcotest.(check string)
      (Printf.sprintf "jobs 4 run %d bytes" i)
      reference out
  done

(* --- the store's stamp --- *)

let read_file f = In_channel.with_open_bin f In_channel.input_all

let hex s =
  String.concat ""
    (List.map
       (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (String.to_seq s)))

(* The GNU build-ID note within the first 4 KiB of an ELF image, found by
   a byte search for its header (namesz 4, descsz, type 3) and name:
   [Some (offset of the type field, descriptor)]. *)
let build_id_note image =
  let head = String.sub image 0 (min 4096 (String.length image)) in
  let rec go i =
    if i + 12 > String.length head then None
    else if
      String.sub head i 4 = "\004\000\000\000"
      && String.sub head (i + 8) 8 = "\003\000\000\000GNU\000"
    then
      let descsz = Int32.to_int (String.get_int32_le head (i + 4)) in
      if descsz > 0 && i + 16 + descsz <= String.length head then
        Some (i + 8, String.sub head (i + 16) descsz)
      else go (i + 1)
    else go (i + 1)
  in
  if String.starts_with ~prefix:"\127ELF" head then go 0 else None

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* [f dir] in a fresh directory, removed afterwards with all it holds. *)
let with_dir =
  let n = ref 0 in
  fun f ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "vp_cli_test_%d_%d" (Unix.getpid ()) !n)
    in
    Unix.mkdir dir 0o755;
    Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* The version line of every entry in the store [dir]. *)
let entry_versions dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".bin")
  |> List.map (fun f ->
         match
           String.split_on_char '\n' (read_file (Filename.concat dir f))
         with
         | _magic :: version :: _ -> version
         | _ -> Alcotest.failf "entry %s has no version line" f)

(* [table2 -b compress] over the store [dir]: (stdout, telemetry JSON). *)
let table2 ?exe dir =
  let tel = Filename.concat dir "telemetry.json" in
  let code, out =
    run_stdout ?exe
      [ "table2"; "-b"; "compress"; "--cache-dir"; dir; "--telemetry"; tel ]
  in
  checki "exit 0" 0 code;
  (out, read_file tel)

(* The [cache] section's counter [name] in a telemetry JSON. *)
let cache_counter json name =
  let section = "\"cache\": {" in
  let rec find sub i =
    if String.sub json i (String.length sub) = sub then i + String.length sub
    else find sub (i + 1)
  in
  let at = find (Printf.sprintf "\"%s\": " name) (find section 0) in
  let stop = ref at in
  while json.[!stop] >= '0' && json.[!stop] <= '9' do
    incr stop
  done;
  int_of_string (String.sub json at (!stop - at))

(* A native ELF build carries a GNU build ID: the store stamps each entry
   with it, and a second run of the same binary reads every entry back. *)
let test_stamp_build_id () =
  match build_id_note (read_file vliw_vp) with
  | None -> Alcotest.skip ()
  | Some (_, id) ->
      with_dir @@ fun dir ->
      let cold, _ = table2 dir in
      let warm, tel = table2 dir in
      checks "warm tables" cold warm;
      checki "warm misses" 0 (cache_counter tel "misses");
      checkb "warm hits" true (cache_counter tel "hits" > 0);
      let expected =
        Printf.sprintf "build-id-%s-ocaml%s" (hex id) Sys.ocaml_version
      in
      let versions = entry_versions dir in
      checkb "entries written" true (versions <> []);
      List.iter (checks "entry version" expected) versions

(* A copy whose note type is patched has no build ID: it stamps the MD5 of
   its whole file, prints the same tables, and it and the original each
   evict the other's entries from one shared store. *)
let test_stamp_fallback_evicts () =
  let image = read_file vliw_vp in
  match build_id_note image with
  | None -> Alcotest.skip ()
  | Some (type_at, id) ->
      with_dir @@ fun dir ->
      let copy = Filename.concat dir "vliw_vp_no_build_id.exe" in
      let patched = Bytes.of_string image in
      Bytes.set patched type_at '\127';
      Out_channel.with_open_gen
        [ Open_wronly; Open_creat; Open_trunc; Open_binary ]
        0o755 copy
        (fun oc -> Out_channel.output_bytes oc patched);
      let store = Filename.concat dir "store" in
      let original =
        Printf.sprintf "build-id-%s-ocaml%s" (hex id) Sys.ocaml_version
      in
      let fallback =
        Printf.sprintf "%s-ocaml%s" (Digest.to_hex (Digest.file copy))
          Sys.ocaml_version
      in
      let reference, _ = table2 store in
      let entries = List.length (entry_versions store) in
      checkb "entries written" true (entries > 0);
      let stamped_by label exe version =
        let out, tel = table2 ?exe store in
        checks (label ^ " tables") reference out;
        checki (label ^ " evicts every entry") entries
          (cache_counter tel "corrupt_evicted");
        List.iter
          (checks (label ^ " entry version") version)
          (entry_versions store)
      in
      stamped_by "copy" (Some copy) fallback;
      stamped_by "original" None original

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "vliw_vp_cli"
    [
      ( "errors",
        [
          tc "unknown subcommand" test_unknown_subcommand;
          tc "unknown flag" test_unknown_flag;
          tc "missing flag value" test_missing_flag_value;
          tc "bad flag value" test_bad_flag_value;
          tc "unsupported width" test_unsupported_width;
          tc "valid command unaffected" test_valid_command_still_works;
        ] );
      ( "telemetry",
        [
          tc "spec_eval section" test_telemetry_spec_eval;
          tc "trace_sim section" test_telemetry_trace_sim;
          tc "suite job counts" test_telemetry_suite_counts;
        ] );
      ("parallel", [ tc "sweep jobs 4 = jobs 1" test_parallel_sweep_identity ]);
      ( "store stamp",
        [
          tc "build ID stamps a warm store" test_stamp_build_id;
          tc "MD5 fallback evicts across binaries" test_stamp_fallback_evicts;
        ] );
    ]
