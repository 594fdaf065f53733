(* Subprocess tests for the vliw_vp executable: an unknown subcommand or
   malformed flag must produce exactly one diagnostic line on stderr (no
   usage dump) and cmdliner's exit 124; [--telemetry] reports its sections
   and the suite's exact job counts; [summary] prints pinned bytes cold and
   warm; and fresh processes at [--jobs 4] print the sequential bytes. *)

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

let contains_sub line expect_sub =
  let n = String.length expect_sub and m = String.length line in
  let rec go i =
    i + n <= m && (String.sub line i n = expect_sub || go (i + 1))
  in
  go 0

let check_one_line_error name args ~expect_sub =
  let code, err = run args in
  checki (name ^ ": exit 124") 124 code;
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

(* [--jobs] takes 1 to 127: OCaml 5.1 runs at most 128 domains per
   process, the main one included. Out-of-range values are refused at the
   command line, before any domain starts. Should one be accepted, Table 2
   over one benchmark drains on two domains at most. *)
let test_jobs_out_of_range () =
  List.iter
    (fun (flags, j) ->
      check_one_line_error
        ("jobs out of range: " ^ String.concat " " flags)
        ([ "table2"; "-b"; "compress"; "--no-cache" ] @ flags)
        ~expect_sub:
          (Printf.sprintf
             "invalid value '%d', unsupported worker count %d (supported: 1 \
              to 127)"
             j j))
    [ ([ "--jobs"; "0" ], 0); ([ "--jobs=-3" ], -3); ([ "--jobs"; "128" ], 128) ]

(* A threshold is a rate: above 1 would speculate nothing, below 0 every
   load, and NaN compares false with both bounds. *)
let test_threshold_out_of_range () =
  List.iter
    (fun (flags, shown) ->
      check_one_line_error
        ("threshold out of range: " ^ String.concat " " flags)
        ([ "table2"; "-b"; "compress"; "--no-cache" ] @ flags)
        ~expect_sub:("threshold out of range: " ^ shown))
    [
      ([ "--threshold"; "2.0" ], "2");
      ([ "--threshold"; "nan" ], "nan");
      ([ "--threshold=-1" ], "-1");
    ]

(* A block index past any selected model's blocks is refused before
   anything prints, naming the model and its range. *)
let test_schedule_block_out_of_range () =
  List.iter
    (fun (flags, expect_sub) ->
      let args = [ "schedule"; "-b"; "compress,li" ] @ flags in
      check_one_line_error (String.concat " " args) args ~expect_sub;
      let _, out = run_stdout args in
      checks (String.concat " " args ^ ": no stdout") "" out)
    [
      ([ "-i"; "999" ], "compress: block 999 out of range (0..79)");
      ([ "--block=-1" ], "compress: block -1 out of range (0..79)");
      ([ "-i"; "85" ], "compress: block 85 out of range (0..79)");
    ]

let test_valid_command_still_works () =
  let code, err = run [ "example" ] in
  checki "exit 0" 0 code;
  checki "no stderr" 0 (List.length (nonempty_lines err))

(* [--telemetry -] must report the bit-parallel scenario engine's lane
   occupancy in a [spec_eval] section: how many lane words ran and how
   many vectors they carried. *)
let test_telemetry_spec_eval () =
  let code, err = run [ "table2"; "--telemetry"; "-" ] in
  checki "exit 0" 0 code;
  let doc = Telemetry_doc.parse err in
  ignore (Telemetry_doc.int doc "spec_eval.bitset_words");
  ignore (Telemetry_doc.int doc "spec_eval.bitset_vectors");
  ignore (Telemetry_doc.float doc "spec_eval.vectors_per_word")

(* The hardware-validation run must surface the trace simulator's counters
   as a [trace_sim] section: one benchmark is exactly one run. *)
let test_telemetry_trace_sim () =
  let code, err =
    run [ "hardware"; "-b"; "compress"; "--telemetry"; "-" ]
  in
  checki "exit 0" 0 code;
  let doc = Telemetry_doc.parse err in
  checki "trace_sim.runs" 1 (Telemetry_doc.int doc "trace_sim.runs");
  List.iter
    (fun field -> ignore (Telemetry_doc.int doc ("trace_sim." ^ field)))
    [ "memo_hits"; "alias_evictions" ];
  (* the run simulated something: at least one block execution reached the
     engine *)
  checkb "engine replays recorded" true
    (Telemetry_doc.int doc "trace_sim.engine_replays" > 0)

(* [workers.count] is the number of domains a drain ran on: Table 2 over
   one benchmark is a three-node graph (the benchmark leaf, its reducer
   and the table's render node), which [--jobs 4] drains on three
   domains. *)
let test_telemetry_workers_count () =
  List.iter
    (fun (jobs, count) ->
      let code, err =
        run
          [
            "table2"; "-b"; "compress"; "--jobs"; string_of_int jobs;
            "--no-cache"; "--telemetry"; "-";
          ]
      in
      checki "exit 0" 0 code;
      checki
        (Printf.sprintf "--jobs %d workers.count" jobs)
        count
        (Telemetry_doc.int (Telemetry_doc.parse err) "workers.count"))
    [ (4, 3); (1, 1) ]

(* The cold suite's job-graph shape, counted exactly: 53 jobs (run_all,
   table4, regions and overlap at 9 each, 8 comparison leaves and their
   reducer, and one render node per artifact of [all], 8), 34 in-flight
   dedups (table4's narrow points and the comparison leaves' summary
   dependencies onto run_all's jobs, 16, plus table3 and fig8 each
   declaring run_all's 8 leaves and reducer again, 18), and 24 whole-run
   memo hits: the region and overlap base runs that repeat run_all's
   pipelines (16), plus one per comparison leaf, which reads its
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
  let doc = Telemetry_doc.parse err in
  List.iter
    (fun (path, expected) -> checki path expected (Telemetry_doc.int doc path))
    [
      ("jobs.done", 53);
      ("graph.deduped", 34);
      ("spec_eval.run_memo_hits", 24);
      ("spec_eval.run_memo_misses", 24);
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

(* [vliw_vp args] over the store [dir]: (stdout, telemetry JSON). *)
let over_store ?exe dir args =
  let tel = Filename.concat dir "telemetry.json" in
  let code, out =
    run_stdout ?exe (args @ [ "--cache-dir"; dir; "--telemetry"; tel ])
  in
  checki (String.concat " " args ^ ": exit 0") 0 code;
  (out, read_file tel)

(* [table2 -b compress] over the store [dir]. *)
let table2 ?exe dir = over_store ?exe dir [ "table2"; "-b"; "compress" ]

(* The counter at [path] of the telemetry document [json]. *)
let counter json path = Telemetry_doc.int (Telemetry_doc.parse json) path

(* No CCE-width point reads a speculated block's preparation (reference
   run, compiled kernel, static-recovery model, outcome vectors), so at
   one job each block is prepared by the sweep's first point and shared
   by its other three: exactly three preparation-memo hits per miss. *)
let test_telemetry_prep_memo () =
  let code, err =
    run
      [
        "ablate"; "--sweep"; "ccewidth"; "--jobs"; "1"; "--no-cache";
        "--seed"; "42"; "--telemetry"; "-";
      ]
  in
  checki "exit 0" 0 code;
  let hits = counter err "spec_eval.prep_memo_hits"
  and misses = counter err "spec_eval.prep_memo_misses" in
  checkb "some block was prepared" true (misses > 0);
  checki "hits = 3 x misses" (3 * misses) hits

(* The hardware validation's trace simulator runs each speculated block
   on the kernel the pipeline compiled, read back from the block's
   preparation: at one job every block the pipeline prepared is read
   back once and prepared no second time. *)
let test_telemetry_hardware_kernels () =
  let code, err =
    run
      [
        "hardware"; "--seed"; "42"; "--jobs"; "1"; "--no-cache";
        "--telemetry"; "-";
      ]
  in
  checki "exit 0" 0 code;
  let hits = counter err "spec_eval.prep_memo_hits"
  and misses = counter err "spec_eval.prep_memo_misses" in
  checkb "some block was prepared" true (misses > 0);
  checki "hits = misses" misses hits

let cache_counter json name = counter json ("cache." ^ name)

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

(* --- summary --- *)

(* [summary] is one store-cached graph node per model. Its stdout is
   pinned at [--jobs 1] and [--jobs 4], cold and warm over one store, and
   a warm run reads one entry per model and computes nothing. *)
let summary_bytes = {|compress (seed 42): 80 blocks, 927 static ops, 152 loads, 10000 dynamic block executions
stream mix: constant=11 mostly-strided=60 strided=4 noisy-periodic=14 random=63
mean prediction rate 0.460; 31/80 blocks speculated

li (seed 42): 88 blocks, 808 static ops, 194 loads, 10000 dynamic block executions
stream mix: constant=17 pointer-chain=35 mostly-strided=81 noisy-periodic=23 random=38
mean prediction rate 0.676; 48/88 blocks speculated

|}

let test_summary () =
  List.iter
    (fun (cold_jobs, warm_jobs) ->
      with_dir @@ fun dir ->
      let summary jobs =
        over_store dir
          [ "summary"; "-b"; "compress,li"; "--jobs"; string_of_int jobs ]
      in
      let label phase jobs = Printf.sprintf "%s --jobs %d" phase jobs in
      let cold, cold_tel = summary cold_jobs in
      checks (label "cold" cold_jobs) summary_bytes cold;
      checki (label "cold misses" cold_jobs) 2 (cache_counter cold_tel "misses");
      let warm, warm_tel = summary warm_jobs in
      checks (label "warm" warm_jobs) summary_bytes warm;
      checki (label "warm jobs done" warm_jobs) 2
        (counter warm_tel "jobs.done");
      checki (label "warm hits" warm_jobs) 2 (cache_counter warm_tel "hits");
      checki (label "warm misses" warm_jobs) 0
        (cache_counter warm_tel "misses"))
    [ (1, 4); (4, 1) ]

(* --- hand-written assembly: [simulate] and [run] --- *)

(* Three blocks for [simulate]: a hot pointer chase, a warm two-load
   chain, and a cold block with no loads (an unspeculated fetch). *)
let program_source = {|# three blocks: a hot pointer chase, a warm two-load chain, a cold ALU tail
label hot * 10:
r16 <- load r1 !0.95
r17 <- add r16, r2
r18 <- mul r17, r17
store r3, r18
label warm * 4:
r20 <- load r4
r21 <- load r20 !0.7
r22 <- add r21, r5
r23 <- xor r22, r20
store r6, r23
label cold * 1:
r30 <- add r7, r8
r31 <- mul r30, r9
store r10, r31
|}

(* One block for [run]: two predicted loads at the default rate, one of
   them annotated, so [--rate 0.5] leaves a single prediction. *)
let block_source = {|# a predicted load feeding a chain, and an unannotated second load
r16 <- load r1 @s0 !0.9
r17 <- load r2 @s1
r18 <- add r16, r3
r19 <- mul r18, r17
r20 <- xor r19, r4
store r5, r20
r21 <- cmp r20, r6
branch r21
|}

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

(* [simulate] is the CLI's way into [Dual_engine.run_sequence]: its whole
   stdout is pinned for the default, a longer seeded run and a wider
   machine. *)
let test_simulate_program () =
  with_dir @@ fun dir ->
  let file = Filename.concat dir "prog.vasm" in
  write_file file program_source;
  List.iter
    (fun (args, expected) ->
      let code, out = run_stdout ([ "simulate" ] @ args @ [ file ]) in
      let name = String.concat " " ("simulate" :: args) in
      checki (name ^ ": exit 0") 0 code;
      checks (name ^ ": stdout") expected out)
    [
      ([], {|200 dynamic blocks: 1156 cycles with value prediction, 1446 without (1.251x);
78 stalls, 319 flushed, 49 recomputed, CCB high water 2, state ok
|});
      ([ "-n"; "2000"; "--seed"; "7" ], {|2000 dynamic blocks: 11686 cycles with value prediction, 14657 without (1.254x);
771 stalls, 3266 flushed, 476 recomputed, CCB high water 2, state ok
|});
      ([ "-w"; "8"; "-n"; "500" ], {|500 dynamic blocks: 2917 cycles with value prediction, 3648 without (1.251x);
201 stalls, 808 flushed, 124 recomputed, CCB high water 2, state ok
|});
    ]

(* [run --trace] prints the transformed block, then every scenario's
   timing and its Figure-7 cycle table from the [Dual_engine.run]
   observer. *)
let test_run_trace_block () =
  with_dir @@ fun dir ->
  let file = Filename.concat dir "block.vasm" in
  write_file file block_source;
  List.iter
    (fun (args, expected) ->
      let code, out = run_stdout ([ "run"; "--trace" ] @ args @ [ file ]) in
      let name = String.concat " " ("run --trace" :: args) in
      checki (name ^ ": exit 0") 0 code;
      checks (name ^ ": stdout") expected out)
    [
      ([], {|speculated block block: 2 predictions, 6 sync bits
  pred 0: load 0 (rate 0.90) -> ldpred 0 (r22, bit 0), check 2
  pred 1: load 1 (rate 0.90) -> ldpred 1 (r23, bit 1), check 3
original: schedule of block on playdoh-4w (length 9):
          cycle  0: 0: r16 <- load r1 @s0
          cycle  1: 1: r17 <- load r2 @s1
          cycle  2: (nop)
          cycle  3: 2: r18 <- add r16, r3
          cycle  4: 3: r19 <- mul r18, r17
          cycle  5: (nop)
          cycle  6: 4: r20 <- xor r19, r4
          cycle  7: 5: store r5, r20 || 6: r21 <- cmp r20, r6
          cycle  8: 7: branch r21
          
speculative: schedule of block+vp on playdoh-4w (length 7):
             cycle  0: 0: r22 <- ldpred  (ldpred sets b0, checked by 2) || 1: r23 <- ldpred  (ldpred sets b1, checked by 3) || 2: r16 <- load r1 @s0 (check b0; spec b2)
             cycle  1: 3: r17 <- load r2 @s1 (check b1; spec b3,b4,b5) || 4: r18 <- add r22, r3 (spec sets b2)
             cycle  2: 5: r19 <- mul r18, r23 (spec sets b3)
             cycle  3: (nop)
             cycle  4: 6: r20 <- xor r19, r4 (spec sets b4)
             cycle  5: 7: store r5, r20 (nonspec) || 8: r21 <- cmp r20, r6 (spec sets b5)
             cycle  6: 9: branch r21 (nonspec)
             
wait masks: c5={4} c6={5}

[--]: 11 cycles (original 9), 4 stalls, 0 flushed, 4 recomputed
cycle  0 | issue 0 1 2 | CCB [] | OVB v16:PPN v17:PPN | CCE idle
cycle  1 | issue 3 4 | CCB [4] | OVB v16:PPN v17:PPN v18:SRN | CCE idle
cycle  2 | issue 5 | CCB [4;5] | OVB v16:PPN v17:PPN v18:SRN v19:SRN | CCE stall op 4
cycle  3 | issue - | CCB [4;5] | OVB v16:PPN v17:PPN v18:SR v19:SRN | CCE stall op 4
cycle  4 | issue 6 | CCB [5;6] | OVB v16:PR v17:PPN v18:SR v19:SR v20:SR | CCE recompute op 4
cycle  5 | issue (stall) | CCB [6] | OVB v16:PR v17:PR v18:SR v19:SR v20:SR | CCE recompute op 5
cycle  6 | issue (stall) | CCB [6] | OVB v16:PR v17:PR v18:SR v19:SR v20:SR | CCE stall op 6
cycle  7 | issue (stall) | CCB [] | OVB v16:PR v17:PR v18:SR v19:SR v20:SR | CCE recompute op 6
cycle  8 | issue 7 8 | CCB [8] | OVB v16:PR v17:PR v18:SR v19:SR v20:SR v21:SR | CCE idle
cycle  9 | issue (stall) | CCB [] | OVB v16:PR v17:PR v18:SR v19:SR v20:SR v21:SR | CCE recompute op 8
cycle 10 | issue 9 | CCB [] | OVB v16:PR v17:PR v18:SR v19:SR v20:SR v21:SR | CCE idle

[+-]: 11 cycles (original 9), 4 stalls, 1 flushed, 3 recomputed
cycle  0 | issue 0 1 2 | CCB [] | OVB v16:PPN v17:PPN | CCE idle
cycle  1 | issue 3 4 | CCB [4] | OVB v16:PPN v17:PPN v18:SRN | CCE idle
cycle  2 | issue 5 | CCB [4;5] | OVB v16:PPN v17:PPN v18:SRN v19:SRN | CCE stall op 4
cycle  3 | issue - | CCB [4;5] | OVB v16:PPN v17:PPN v18:SRN v19:SRN | CCE stall op 4
cycle  4 | issue 6 | CCB [5;6] | OVB v16:PC v17:PPN v18:SC v19:SR v20:SR | CCE flush op 4
cycle  5 | issue (stall) | CCB [6] | OVB v16:PC v17:PR v18:SC v19:SR v20:SR | CCE recompute op 5
cycle  6 | issue (stall) | CCB [6] | OVB v16:PC v17:PR v18:SC v19:SR v20:SR | CCE stall op 6
cycle  7 | issue (stall) | CCB [] | OVB v16:PC v17:PR v18:SC v19:SR v20:SR | CCE recompute op 6
cycle  8 | issue 7 8 | CCB [8] | OVB v16:PC v17:PR v18:SC v19:SR v20:SR v21:SR | CCE idle
cycle  9 | issue (stall) | CCB [] | OVB v16:PC v17:PR v18:SC v19:SR v20:SR v21:SR | CCE recompute op 8
cycle 10 | issue 9 | CCB [] | OVB v16:PC v17:PR v18:SC v19:SR v20:SR v21:SR | CCE idle

[-+]: 11 cycles (original 9), 4 stalls, 0 flushed, 4 recomputed
cycle  0 | issue 0 1 2 | CCB [] | OVB v16:PPN v17:PPN | CCE idle
cycle  1 | issue 3 4 | CCB [4] | OVB v16:PPN v17:PPN v18:SRN | CCE idle
cycle  2 | issue 5 | CCB [4;5] | OVB v16:PPN v17:PPN v18:SRN v19:SRN | CCE stall op 4
cycle  3 | issue - | CCB [4;5] | OVB v16:PPN v17:PPN v18:SR v19:SRN | CCE stall op 4
cycle  4 | issue 6 | CCB [5;6] | OVB v16:PR v17:PPN v18:SR v19:SR v20:SR | CCE recompute op 4
cycle  5 | issue (stall) | CCB [6] | OVB v16:PR v17:PC v18:SR v19:SR v20:SR | CCE recompute op 5
cycle  6 | issue (stall) | CCB [6] | OVB v16:PR v17:PC v18:SR v19:SR v20:SR | CCE stall op 6
cycle  7 | issue (stall) | CCB [] | OVB v16:PR v17:PC v18:SR v19:SR v20:SR | CCE recompute op 6
cycle  8 | issue 7 8 | CCB [8] | OVB v16:PR v17:PC v18:SR v19:SR v20:SR v21:SR | CCE idle
cycle  9 | issue (stall) | CCB [] | OVB v16:PR v17:PC v18:SR v19:SR v20:SR v21:SR | CCE recompute op 8
cycle 10 | issue 9 | CCB [] | OVB v16:PR v17:PC v18:SR v19:SR v20:SR v21:SR | CCE idle

[++]: 7 cycles (original 9), 0 stalls, 4 flushed, 0 recomputed
cycle  0 | issue 0 1 2 | CCB [] | OVB v16:PPN v17:PPN | CCE idle
cycle  1 | issue 3 4 | CCB [4] | OVB v16:PPN v17:PPN v18:SRN | CCE idle
cycle  2 | issue 5 | CCB [4;5] | OVB v16:PPN v17:PPN v18:SRN v19:SRN | CCE stall op 4
cycle  3 | issue - | CCB [4;5] | OVB v16:PPN v17:PPN v18:SRN v19:SRN | CCE stall op 4
cycle  4 | issue 6 | CCB [5;6] | OVB v16:PC v17:PPN v18:SC v19:SRN v20:SRN | CCE flush op 4
cycle  5 | issue 7 8 | CCB [6;8] | OVB v16:PC v17:PC v18:SC v19:SC v20:SC v21:SC | CCE flush op 5
cycle  6 | issue 9 | CCB [8] | OVB v16:PC v17:PC v18:SC v19:SC v20:SC v21:SC | CCE flush op 6
cycle  7 | issue - | CCB [] | OVB v16:PC v17:PC v18:SC v19:SC v20:SC v21:SC | CCE flush op 8

|});
      ([ "-w"; "2"; "--rate"; "0.5" ], {|speculated block block: 1 predictions, 5 sync bits
  pred 0: load 0 (rate 0.90) -> ldpred 0 (r22, bit 0), check 1
original: schedule of block on playdoh-2w (length 9):
          cycle  0: 0: r16 <- load r1 @s0
          cycle  1: 1: r17 <- load r2 @s1
          cycle  2: (nop)
          cycle  3: 2: r18 <- add r16, r3
          cycle  4: 3: r19 <- mul r18, r17
          cycle  5: (nop)
          cycle  6: 4: r20 <- xor r19, r4
          cycle  7: 5: store r5, r20 || 6: r21 <- cmp r20, r6
          cycle  8: 7: branch r21
          
speculative: schedule of block+vp on playdoh-2w (length 8):
             cycle  0: 0: r22 <- ldpred  (ldpred sets b0, checked by 1) || 2: r17 <- load r2 @s1
             cycle  1: 1: r16 <- load r1 @s0 (check b0; spec b1,b2,b3,b4) || 3: r18 <- add r22, r3 (spec sets b1)
             cycle  2: (nop)
             cycle  3: 4: r19 <- mul r18, r17 (spec sets b2)
             cycle  4: (nop)
             cycle  5: 5: r20 <- xor r19, r4 (spec sets b3)
             cycle  6: 6: store r5, r20 (nonspec) || 7: r21 <- cmp r20, r6 (spec sets b4)
             cycle  7: 8: branch r21 (nonspec)
             
wait masks: c6={3} c7={4}

[-]: 12 cycles (original 9), 4 stalls, 0 flushed, 4 recomputed
cycle  0 | issue 0 2 | CCB [] | OVB v16:PPN | CCE idle
cycle  1 | issue 1 3 | CCB [3] | OVB v16:PPN v18:SRN | CCE idle
cycle  2 | issue - | CCB [3] | OVB v16:PPN v18:SRN | CCE stall op 3
cycle  3 | issue 4 | CCB [3;4] | OVB v16:PPN v18:SRN v19:SRN | CCE stall op 3
cycle  4 | issue - | CCB [3;4] | OVB v16:PPN v18:SR v19:SR | CCE stall op 3
cycle  5 | issue 5 | CCB [4;5] | OVB v16:PR v18:SR v19:SR v20:SR | CCE recompute op 3
cycle  6 | issue (stall) | CCB [5] | OVB v16:PR v18:SR v19:SR v20:SR | CCE recompute op 4
cycle  7 | issue (stall) | CCB [5] | OVB v16:PR v18:SR v19:SR v20:SR | CCE stall op 5
cycle  8 | issue (stall) | CCB [] | OVB v16:PR v18:SR v19:SR v20:SR | CCE recompute op 5
cycle  9 | issue 6 7 | CCB [7] | OVB v16:PR v18:SR v19:SR v20:SR v21:SR | CCE idle
cycle 10 | issue (stall) | CCB [] | OVB v16:PR v18:SR v19:SR v20:SR v21:SR | CCE recompute op 7
cycle 11 | issue 8 | CCB [] | OVB v16:PR v18:SR v19:SR v20:SR v21:SR | CCE idle

[+]: 8 cycles (original 9), 0 stalls, 4 flushed, 0 recomputed
cycle  0 | issue 0 2 | CCB [] | OVB v16:PPN | CCE idle
cycle  1 | issue 1 3 | CCB [3] | OVB v16:PPN v18:SRN | CCE idle
cycle  2 | issue - | CCB [3] | OVB v16:PPN v18:SRN | CCE stall op 3
cycle  3 | issue 4 | CCB [3;4] | OVB v16:PPN v18:SRN v19:SRN | CCE stall op 3
cycle  4 | issue - | CCB [3;4] | OVB v16:PPN v18:SRN v19:SRN | CCE stall op 3
cycle  5 | issue 5 | CCB [4;5] | OVB v16:PC v18:SC v19:SC v20:SC | CCE flush op 3
cycle  6 | issue 6 7 | CCB [5;7] | OVB v16:PC v18:SC v19:SC v20:SC v21:SC | CCE flush op 4
cycle  7 | issue 8 | CCB [7] | OVB v16:PC v18:SC v19:SC v20:SC v21:SC | CCE flush op 5
cycle  8 | issue - | CCB [] | OVB v16:PC v18:SC v19:SC v20:SC v21:SC | CCE flush op 7

|});
    ]

(* Every registry command that takes [--csv] renders CSV under it: a
   header row, then rows of as many fields, every field outside the label
   columns ([Benchmark], and [Bucket] for [fig8]) a bare number. A cell
   with a display unit keeps its digits and the header names the unit. *)
let test_csv_tables () =
  let csv_commands =
    List.filter_map
      (fun (a : Vliw_vp.Artifact.t) ->
        match a.command with
        | Some (Table { cmd; csv = true; _ }) -> Some cmd
        | Some (Table _ | Bare _ | Sweep _) | None -> None)
      Vliw_vp.Artifact.registry
  in
  checks "commands taking --csv" "table2 table3 table4 fig8 compare hardware"
    (String.concat " " csv_commands);
  let pinned_headers =
    [
      ("fig8", "Benchmark,Bucket,Percent");
      ( "compare",
        "Benchmark,Comp share (ours) [%],Comp share ([4]) [%],Sched ratio \
         (ours),Sched ratio ([4]),Cache share ([4]) [%],Code growth ([4]) [%]"
      );
      ( "hardware",
        "Benchmark,Speedup (hw) [x],Speedup (profile) [x],Accuracy \
         (hw),Predictions" );
    ]
  in
  List.iter
    (fun cmd ->
      let out args =
        let code, out =
          run_stdout ([ cmd; "-b"; "compress,li"; "--no-cache" ] @ args)
        in
        checki (cmd ^ " exit 0") 0 code;
        out
      in
      let csv = out [ "--csv" ] in
      checkb (cmd ^ " --csv differs from the aligned table") true
        (csv <> out []);
      match String.split_on_char '\n' (String.trim csv) with
      | first :: rows ->
          Option.iter
            (fun header -> checks (cmd ^ " header") header first)
            (List.assoc_opt cmd pinned_headers);
          let header = String.split_on_char ',' first in
          checkb (cmd ^ " has rows") true (rows <> []);
          List.iter
            (fun row ->
              let cells = String.split_on_char ',' row in
              checki (cmd ^ " row fields") (List.length header)
                (List.length cells);
              List.iter2
                (fun column cell ->
                  if column <> "Benchmark" && column <> "Bucket" then
                    checkb
                      (Printf.sprintf "%s %s cell %S is a number" cmd column
                         cell)
                      true
                      (Option.is_some (float_of_string_opt cell)))
                header cells)
            rows
      | [] -> Alcotest.failf "%s --csv printed nothing" cmd)
    csv_commands

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
          tc "jobs out of range" test_jobs_out_of_range;
          tc "threshold out of range" test_threshold_out_of_range;
          tc "schedule block out of range" test_schedule_block_out_of_range;
          tc "valid command unaffected" test_valid_command_still_works;
        ] );
      ( "telemetry",
        [
          tc "spec_eval section" test_telemetry_spec_eval;
          tc "trace_sim section" test_telemetry_trace_sim;
          tc "suite job counts" test_telemetry_suite_counts;
          tc "workers.count is the domains that ran"
            test_telemetry_workers_count;
          tc "ccewidth points share preparations" test_telemetry_prep_memo;
          tc "hardware reads the pipeline's kernels"
            test_telemetry_hardware_kernels;
        ] );
      ("csv", [ tc "fig8 and hardware --csv" test_csv_tables ]);
      ("summary", [ tc "pinned bytes, cold and warm" test_summary ]);
      ("parallel", [ tc "sweep jobs 4 = jobs 1" test_parallel_sweep_identity ]);
      ( "assembly",
        [
          tc "simulate a program" test_simulate_program;
          tc "run --trace a block" test_run_trace_block;
        ] );
      ( "store stamp",
        [
          tc "build ID stamps a warm store" test_stamp_build_id;
          tc "MD5 fallback evicts across binaries" test_stamp_fallback_evicts;
        ] );
    ]
