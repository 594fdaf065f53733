(* Subprocess tests for the vliw_vp executable: an unknown subcommand or
   malformed flag must produce exactly one diagnostic line on stderr (no
   usage dump) and a non-zero exit; [--telemetry] reports its sections and
   the suite's exact job counts; and fresh processes at [--jobs 4] print
   the sequential bytes. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

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

(* Run vliw_vp, return (exit code, stdout). stderr goes to /dev/null. *)
let run_stdout args =
  let out_r, out_w = Unix.pipe ~cloexec:false () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process vliw_vp
      (Array.of_list (vliw_vp :: args))
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
   many vectors they carried, and how many deadlock lanes fell back to a
   scalar replay. *)
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
      "\"scalar_fallbacks\"";
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
          tc "valid command unaffected" test_valid_command_still_works;
        ] );
      ( "telemetry",
        [
          tc "spec_eval section" test_telemetry_spec_eval;
          tc "trace_sim section" test_telemetry_trace_sim;
          tc "suite job counts" test_telemetry_suite_counts;
        ] );
      ("parallel", [ tc "sweep jobs 4 = jobs 1" test_parallel_sweep_identity ]);
    ]
