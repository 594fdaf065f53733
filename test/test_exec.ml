(* Tests for Vp_exec: pool determinism, store round-trips and corruption
   recovery, watchdog timeouts, and the experiment-layer wiring. *)

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
  let summaries = Vliw_vp.Experiments.run_all ~config:small_config ~exec small_models in
  Vliw_vp.Experiments.render_table2 summaries
  ^ Vliw_vp.Experiments.render_table3 summaries

(* --- Job --- *)

let test_derived_seed () =
  let s = Vp_exec.Job.derived_seed ~key:"alpha" in
  checki "stable" s (Vp_exec.Job.derived_seed ~key:"alpha");
  checkb "non-negative" true (s >= 0);
  checkb "key-dependent" true (s <> Vp_exec.Job.derived_seed ~key:"beta")

let test_job_rng_is_key_seeded () =
  (* The same key draws the same stream whichever pool configuration runs
     it; distinct keys draw distinct streams. *)
  let draw key = Vp_exec.Job.make ~key (fun ctx -> Vp_util.Rng.bits64 ctx.rng) in
  let seq = Vp_exec.Pool.run ~jobs:1 [ draw "a"; draw "b"; draw "c" ] in
  let par = Vp_exec.Pool.run ~jobs:4 [ draw "a"; draw "b"; draw "c" ] in
  let values outs = List.filter_map Vp_exec.Job.outcome_ok outs in
  Alcotest.(check (list int64)) "jobs=1 = jobs=4" (values seq) (values par);
  match values seq with
  | [ a; b; _ ] -> checkb "distinct keys, distinct streams" true (a <> b)
  | _ -> Alcotest.fail "expected three outcomes"

(* --- Pool --- *)

let test_pool_submission_order () =
  let specs =
    List.init 20 (fun i ->
        Vp_exec.Job.make ~key:(string_of_int i) (fun _ctx -> i * i))
  in
  let expected = List.init 20 (fun i -> i * i) in
  List.iter
    (fun jobs ->
      let got =
        List.filter_map Vp_exec.Job.outcome_ok (Vp_exec.Pool.run ~jobs specs)
      in
      Alcotest.(check (list int)) "submission order" expected got)
    [ 1; 3; 8 ]

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_pool_failure_isolation () =
  let specs =
    [
      Vp_exec.Job.make ~key:"ok1" (fun _ -> 1);
      Vp_exec.Job.make ~key:"boom" (fun _ -> failwith "boom");
      Vp_exec.Job.make ~key:"ok2" (fun _ -> 2);
    ]
  in
  let open Vp_exec.Job in
  match Vp_exec.Pool.run ~jobs:2 specs with
  | [ Done 1; Failed msg; Done 2 ] ->
      checkb "diagnostic mentions the exception" true (contains ~sub:"boom" msg)
  | _ -> Alcotest.fail "expected Done/Failed/Done in submission order"

let test_pool_watchdog () =
  (* The runaway job polls its token and is reported Timed_out; the quick
     jobs around it still complete. *)
  let runaway =
    Vp_exec.Job.make ~key:"runaway" (fun ctx ->
        let rec loop () =
          Vp_exec.Cancel.check ctx.cancel;
          Unix.sleepf 0.005;
          loop ()
        in
        loop ())
  in
  let quick key = Vp_exec.Job.make ~key (fun _ -> 0) in
  let outcomes =
    Vp_exec.Pool.run ~watchdog_s:0.05 ~jobs:2
      [ quick "q1"; runaway; quick "q2" ]
  in
  let open Vp_exec.Job in
  match outcomes with
  | [ Done 0; Timed_out _; Done 0 ] -> ()
  | _ -> Alcotest.fail "expected Done/Timed_out/Done"

let test_map_exn_raises () =
  let exec = Vp_exec.Context.sequential in
  match
    Vp_exec.Context.map_exn exec
      [ Vp_exec.Job.make ~key:"bad" (fun _ -> failwith "nope") ]
  with
  | _ -> Alcotest.fail "expected Job_failed"
  | exception Vp_exec.Context.Job_failed { key; _ } -> checks "key" "bad" key

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

let test_spec_unit_version_bump_evicts () =
  (* Spec-unit artifacts written through an old-version store must be
     recomputed, not resurrected, after a version bump of the same cache
     directory. *)
  let dir = fresh_dir () in
  let machine = Vp_machine.Descr.playdoh ~width:4 in
  let block =
    fst
      (Vp_workload.Block_gen.generate
         (List.hd Vp_workload.Spec_model.all)
         ~rng:(Vp_util.Rng.create 1)
         ~stream_base:0 ~label:"vbump")
  in
  Vliw_vp.Spec_unit.clear ();
  let old_store = Vp_exec.Store.create ~version:"v-old" ~dir () in
  ignore (Vliw_vp.Spec_unit.schedule ~store:old_store machine block);
  checki "computed once" 1 (Vliw_vp.Spec_unit.stats ()).misses;
  Vliw_vp.Spec_unit.clear ();
  let bumped = Vp_exec.Store.create ~version:"v-new" ~dir () in
  ignore (Vliw_vp.Spec_unit.schedule ~store:bumped machine block);
  let stats = Vliw_vp.Spec_unit.stats () in
  checki "recomputed under new version" 1 stats.misses;
  checki "no stale hit" 0 stats.hits

let test_spec_unit_version_in_key () =
  (* The schema version is marshalled into every spec-unit digest key: an
     artifact persisted by a previous-version binary sits under a
     different key in the same store, so the current version recomputes
     it instead of deserializing the stale bytes. The stale entry is
     planted under a manually replicated old-version key with a poisoned
     payload — a lookup that found it would blow up, not just be slow. *)
  let dir = fresh_dir () in
  let machine = Vp_machine.Descr.playdoh ~width:4 in
  let block =
    fst
      (Vp_workload.Block_gen.generate
         (List.hd Vp_workload.Spec_model.all)
         ~rng:(Vp_util.Rng.create 2)
         ~stream_base:0 ~label:"vkey")
  in
  let store = Vp_exec.Store.create ~version:"same" ~dir () in
  let old_key =
    Digest.to_hex
      (Digest.string
         (Marshal.to_string
            ( "spec-unit-schedule",
              Vliw_vp.Spec_unit.version - 1,
              machine,
              block )
            [ Marshal.Closures ]))
  in
  Vp_exec.Store.put store ~key:old_key "poisoned stale artifact";
  Vliw_vp.Spec_unit.clear ();
  ignore (Vliw_vp.Spec_unit.schedule ~store machine block);
  checki "recomputed, not deserialized" 1 (Vliw_vp.Spec_unit.stats ()).misses;
  checki "no stale hit" 0 (Vliw_vp.Spec_unit.stats ()).hits;
  (* The poisoned entry is untouched under its own key — the bump changed
     the key, it did not overwrite the slot. *)
  checkb "stale entry still present under the old key" true
    (match Vp_exec.Store.find store ~key:old_key with
    | Vp_exec.Store.Hit _ -> true
    | _ -> false)

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

let test_graph_suite_parallel_determinism () =
  (* The full suite path: several experiments declared on one shared
     graph, drained barrier-free. jobs=1 (declaration-order drain) is the
     reference; jobs=4 must render byte-identically. *)
  let render ~exec =
    let module S = Vliw_vp.Experiments.Suite in
    let g = G.create exec in
    let summaries_n = S.run_all g ~config:small_config small_models in
    let table4_n = S.table4 g ~config:small_config small_models in
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
  (* the hardware-validation sweep fans one job per benchmark through the
     pool; its rendered table must be byte-identical to a sequential run *)
  let table ~exec =
    Vliw_vp.Trace_sim.render
      (Vliw_vp.Experiments.hardware_validation ~config:small_config ~exec
         ~executions:400 small_models)
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
    let module S = Vliw_vp.Experiments.Suite in
    let g = G.create exec in
    let summaries_n = S.run_all g ~config:small_config small_models in
    let comparison_n = S.comparison g ~config:small_config small_models in
    let recovery_n = S.recovery_sensitivity g ~config:small_config model in
    let summaries = G.await g summaries_n in
    let suite =
      Vliw_vp.Experiments.render_table2 summaries
      ^ Vliw_vp.Experiments.render_comparison (G.await g comparison_n)
      ^ Vliw_vp.Experiments.render_recovery_sensitivity
          ~bench:model.Vp_workload.Spec_model.name (G.await g recovery_n)
    in
    let compare =
      Vliw_vp.Experiments.render_comparison ~format:`Csv
        (Vliw_vp.Experiments.comparison ~config:small_config ~exec
           small_models)
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
      ( "job",
        [
          tc "derived seed" test_derived_seed;
          tc "key-seeded rng" test_job_rng_is_key_seeded;
        ] );
      ( "pool",
        [
          tc "submission order" test_pool_submission_order;
          tc "failure isolation" test_pool_failure_isolation;
          tc "watchdog" test_pool_watchdog;
          tc "map_exn raises" test_map_exn_raises;
        ] );
      ( "store",
        [
          tc "round trip" test_store_round_trip;
          tc "evicts corrupt" test_store_evicts_corrupt;
          tc "concurrent writers" test_store_concurrent_writers;
          tc "concurrent evict once" test_store_concurrent_evict_once;
          tc "rejects stale version" test_store_rejects_stale_version;
          tc "spec-unit version bump evicts" test_spec_unit_version_bump_evicts;
          tc "spec-unit version is in the key" test_spec_unit_version_in_key;
          tc "unusable cache dir downgrades" test_cli_context_unusable_cache_dir;
          tc "undigestable executable downgrades"
            test_cli_context_undigestable_executable;
        ] );
      ( "graph",
        [
          tc "cycle detection" test_graph_cycle_detection;
          tc "diamond dedup" test_graph_diamond_dedup;
          tc "failure poisons dependents only"
            test_graph_failure_poisons_dependents_only;
          tc "await after failure" test_graph_await_after_failure;
          tc "node-cache LRU" test_graph_node_cache_lru;
          tc "suite parallel determinism" test_graph_suite_parallel_determinism;
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
