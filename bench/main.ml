(* Benchmark harness: times each paper artifact's regeneration (plus the
   core kernels) with Bechamel — one Test.make per paper artifact — then
   prints the evaluation report and the reconstructed Figure 7.

   Run with:  dune exec bench/main.exe
              dune exec bench/main.exe -- --jobs 4 --json BENCH.json
              dune exec bench/main.exe -- --smoke --json BENCH.json
*)

let line = String.make 72 '='

let section title = Printf.printf "%s\n%s\n%s\n" line title line

(* --- Flags ---

   The execution-context vocabulary (--jobs, --no-cache, --cache-dir,
   --telemetry) is the shared one from [Vp_exec.Cli] — identical to the
   vliw_vp driver's. On top of it the harness accepts:

     --json PATH   write machine-readable BENCH.json (ns/run per test)
     --smoke       skip the full regeneration and use a reduced Bechamel
                   budget — a seconds-scale CI sanity run

   Output is byte-identical whatever --jobs says; telemetry goes to stderr
   (or the --telemetry file) so it never perturbs the regenerated tables.

   Without --cache-dir the harness keeps its result store in _cache/bench/,
   not vliw_vp's _cache/: entries carry the stamp of the executable that
   wrote them (its build ID, or its MD5), and both binaries compute the
   same key for the same work, so in a shared store every entry both
   compute would be evicted back and forth as stale. *)

let exec_opts, json_path, smoke =
  let args = List.tl (Array.to_list Sys.argv) in
  let fail msg =
    Printf.eprintf
      "bench: %s\n(expected: %s, --json PATH, --smoke)\n" msg Vp_exec.Cli.usage;
    exit 2
  in
  match Vp_exec.Cli.parse args with
  | Error msg -> fail msg
  | Ok (opts, leftover) ->
      let opts =
        if List.mem "--cache-dir" args then opts
        else
          {
            opts with
            cache_dir = Filename.concat Vp_exec.Store.default_dir "bench";
          }
      in
      let json = ref None and smoke = ref false in
      let rec go = function
        | [] -> ()
        | "--json" :: p :: rest ->
            json := Some p;
            go rest
        | [ "--json" ] -> fail "--json requires a value"
        | "--smoke" :: rest ->
            smoke := true;
            go rest
        | arg :: _ -> fail (Printf.sprintf "unknown argument %s" arg)
      in
      go leftover;
      (opts, !json, !smoke)

let exec_context = Vp_exec.Cli.context exec_opts

let emit_telemetry () =
  let extra = Vliw_vp.Experiments.telemetry_sections () in
  match exec_opts.Vp_exec.Cli.telemetry with
  | Some _ -> Vp_exec.Cli.emit_telemetry ~extra exec_opts exec_context
  | None ->
      Printf.eprintf "telemetry: %s\n%!"
        (Vp_exec.Progress.json_summary ~extra exec_context.progress)

(* --- Part 1: regenerate the paper's evaluation --- *)

(* The evaluation report ([vliw_vp report]) on the harness's context, then
   the reconstructed Figure 7, which no artifact prints. *)
let full_run () =
  print_string (Vliw_vp.Report.generate ~exec:exec_context ());
  section
    "Figure 7 (reconstructed): cycle-by-cycle CCB/OVB contents, r7 mispredicted";
  Format.printf "%a@." Vp_engine.Engine_trace.pp (Vliw_vp.Example.figure7 ())

(* --- Part 2: Bechamel micro-benchmarks --- *)

(* A reduced configuration so each timed sample is one full (but small)
   experiment run rather than a multi-second job. *)
let bench_config =
  { Vliw_vp.Config.default with trace_length = 2_000; monte_carlo_draws = 16 }

let bench_model = Vp_workload.Spec_model.compress

let bench_summary () =
  Vliw_vp.Experiments.run_benchmark ~config:bench_config bench_model

(* One experiment declared on a fresh sequential job graph and run to its
   result: each timed run of an experiment target pays its own graph. *)
let run declare =
  let g = Vp_exec.Graph.create Vp_exec.Context.sequential in
  Vp_exec.Graph.await g (declare g)

let threshold_ablation g =
  Vliw_vp.Experiments.ablate g ~config:bench_config bench_model
    Vliw_vp.Experiments.threshold_sweep

(* Shared inputs for the kernel benchmarks, built once. *)
let kernel_block =
  let w = Vp_workload.Workload.generate bench_model in
  (Vp_ir.Program.nth (Vp_workload.Workload.program w) 0).block

let kernel_machine = Vp_machine.Descr.playdoh ~width:4
let kernel_spec = Vliw_vp.Example.spec ()
let kernel_reference = Vliw_vp.Example.reference ()

(* The compile-once/run-many split: compile and lane arena are built
   once, the timed body replays one scenario as a one-lane word — what a
   trace-sim mask-memo miss pays. [kernel:dual-engine-oracle] times the
   interpreting engine on identical inputs, so the BENCH.json pair records
   the kernel's speedup. *)
let kernel_compiled =
  Vp_engine.Compiled.compile kernel_spec ~reference:kernel_reference
    ~live_in:Vp_engine.Reference.live_in

(* Not shared with the dense-block targets: a run resets the arena's
   sync and calendar rows over their grown length, so sharing would tie
   this row to the order targets run in. *)
let kernel_lanes = Vp_engine.Compiled.Lanes.create ()

(* The densest speculated block the workload models offer — most
   predictions, hence the widest distinct outcome set — compiled once for
   the bit-parallel engine targets below. *)
let bitset_compiled, bitset_vectors, bitset_pair =
  let best = ref None in
  List.iter
    (fun (model : Vp_workload.Spec_model.t) ->
      let w = Vp_workload.Workload.generate model in
      Array.iter
        (fun (wb : Vp_ir.Program.weighted_block) ->
          match
            Vp_vspec.Transform.apply kernel_machine
              ~rate:(fun _ -> Some 0.9)
              wb.block
          with
          | Vp_vspec.Transform.Speculated sb -> (
              let n = Array.length sb.Vp_vspec.Spec_block.predicted in
              match !best with
              | Some (m, _) when m >= n -> ()
              | _ -> best := Some (n, sb))
          | Vp_vspec.Transform.Unchanged _ -> ())
        (Vp_ir.Program.blocks (Vp_workload.Workload.program w)))
    Vp_workload.Spec_model.all;
  let n, sb = match !best with Some b -> b | None -> assert false in
  let reference =
    Vp_engine.Reference.run sb.Vp_vspec.Spec_block.original_block
      ~load_values:(fun id -> 1000 + (13 * id))
      ~live_in:Vp_engine.Reference.live_in
  in
  let compiled =
    Vp_engine.Compiled.compile sb ~reference
      ~live_in:Vp_engine.Reference.live_in
  in
  (* One full lane word of outcome vectors, distinct whenever the block
     has >= 6 predictions (63 of the 2^n combinations). *)
  let vectors =
    Array.init 63 (fun i -> Array.init n (fun k -> (i lsr k) land 1 = 1))
  in
  (* The best/worst pair every scenario batch evaluates. *)
  let pair =
    [| Vp_engine.Scenario.all_correct n; Vp_engine.Scenario.all_incorrect n |]
  in
  (compiled, vectors, pair)

let bitset_lanes = Vp_engine.Compiled.Lanes.create ()

(* --- serve daemon targets ---

   A real in-process daemon over a temp Unix socket, talked to through the
   public client — the timed body pays the full production path: frame
   encode, select-loop wakeup, request validation, graph declaration, the
   dedup hit onto the already-finished render node, and the streamed
   response frames. Started lazily (the startup submit pays the one cold
   simulation so no timed sample does) and shut down after Bechamel.
   Bechamel stabilizes the heap (repeated Gc.compact until live words
   settle) before *every* test regardless of cfg, which only converges
   because the idle daemon is quiescent — it blocks in select without
   allocating. Belt and braces, the serve targets still run in their own
   non-stabilizing pass after every other target, so no in-flight frame
   can race a mid-sample stabilization. *)
let serve_state =
  lazy
    (let sock =
       Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "vliw-vp-bench-%d.sock" (Unix.getpid ()))
     in
     let ready = Atomic.make false in
     let cfg =
       {
         (Vp_serve.Server.default_config ~socket:sock ()) with
         Vp_serve.Server.default_timeout_s = 0.0;
       }
     in
     let srv =
       Domain.spawn (fun () ->
           Vp_serve.Server.run
             ~on_ready:(fun () -> Atomic.set ready true)
             ~exec:exec_context cfg)
     in
     while not (Atomic.get ready) do
       Domain.cpu_relax ()
     done;
     let client = Vp_serve.Client.connect sock in
     ignore
       (Vp_serve.Client.submit client
          (Vp_serve.Client.submit_spec ~experiments:[ "table2" ] ()));
     (client, srv))

let serve_client () = fst (Lazy.force serve_state)

let shutdown_serve () =
  if Lazy.is_val serve_state then begin
    let client, srv = Lazy.force serve_state in
    Vp_serve.Client.shutdown client;
    Vp_serve.Client.close client;
    ignore (Domain.join srv)
  end

(* --- sharded serve target ---

   The sharded daemon forks its shards, which is illegal once this
   process has spawned a domain (the in-process daemon above owns one),
   so [serve:sharded-cold] drives the real binary as a subprocess over a
   temp socket. Every timed sample submits a fresh-seed reduced table2 —
   a render key nobody has seen — so it prices the uncached end-to-end
   sharded path: supervisor admission, routing over the shard socketpair,
   one real simulation on the shard's resident graph, the store write and
   the streamed result frames. The daemon runs with a capped node cache
   so the resident shards stay bounded across the sample stream. *)
let sharded_workers = 2

let sharded_state =
  lazy
    (let tmp = Filename.get_temp_dir_name () in
     let tag = Printf.sprintf "vliw-vp-bench-sharded-%d" (Unix.getpid ()) in
     let sock = Filename.concat tmp (tag ^ ".sock") in
     let cache = Filename.concat tmp (tag ^ ".cache") in
     let bin =
       Filename.concat
         (Filename.dirname Sys.executable_name)
         "../bin/vliw_vp.exe"
     in
     let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
     let pid =
       Unix.create_process bin
         [|
           bin; "serve"; "--workers"; string_of_int sharded_workers;
           "--node-cache"; "64"; "--socket"; sock; "--cache-dir"; cache;
           "-j"; "1"; "--timeout"; "120";
         |]
         Unix.stdin null null
     in
     Unix.close null;
     let deadline = Unix.gettimeofday () +. 30.0 in
     let rec wait () =
       match Vp_serve.Client.connect sock with
       | client -> client
       | exception
           Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
         when Unix.gettimeofday () < deadline ->
           (match Unix.waitpid [ Unix.WNOHANG ] pid with
           | 0, _ -> ()
           | _ -> failwith "bench: sharded daemon exited during startup");
           Unix.sleepf 0.05;
           wait ()
     in
     (wait (), pid))

let sharded_seed = ref 0

let sharded_cold_submit () =
  incr sharded_seed;
  let client, _ = Lazy.force sharded_state in
  let outcome =
    Vp_serve.Client.submit client
      (Vp_serve.Client.submit_spec ~experiments:[ "table2" ]
         ~benchmarks:[ "compress" ]
         ~seed:(1_000_000 + !sharded_seed)
         ~overrides:
           [
             ("trace_length", Vp_serve.Jsonx.Int 2_000);
             ("monte_carlo_draws", Vp_serve.Jsonx.Int 16);
           ]
         ())
  in
  match outcome.Vp_serve.Client.error with
  | None -> ()
  | Some (code, msg) ->
      failwith (Printf.sprintf "bench: sharded submit failed: %s: %s" code msg)

let shutdown_sharded () =
  if Lazy.is_val sharded_state then begin
    let client, pid = Lazy.force sharded_state in
    Vp_serve.Client.shutdown client;
    Vp_serve.Client.close client;
    ignore (Unix.waitpid [] pid)
  end

let tests =
  let open Bechamel in
  [
    (* One Test.make per paper artifact. *)
    Test.make ~name:"table2"
      (Staged.stage (fun () ->
           Vliw_vp.Experiments.render_table2 [ bench_summary () ]));
    Test.make ~name:"table3"
      (Staged.stage (fun () ->
           Vliw_vp.Experiments.render_table3 [ bench_summary () ]));
    (* Self-warm at staging: the whole-run memo makes the steady state a
       pure render, and the full bench's regeneration pre-warms it — the
       smoke run (no regeneration) must measure the same steady state. *)
    Test.make ~name:"table4"
      (Staged.stage
         (let render () =
            Vliw_vp.Experiments.render_table4
              (run (fun g ->
                   Vliw_vp.Experiments.table4 g ~config:bench_config
                     [ bench_model ]))
          in
          let () = ignore (render ()) in
          render));
    Test.make ~name:"figure8"
      (Staged.stage (fun () ->
           Vliw_vp.Experiments.render_figure8 [ bench_summary () ]));
    (* Rendering only: the rows are computed once at staging, the way the
       graph hands a computed comparison to its renderer.
       kernel:cache-comparison times the computation itself. *)
    Test.make ~name:"comparison"
      (Staged.stage
         (let p = Vliw_vp.Pipeline.run ~config:bench_config bench_model in
          let rows =
            [
              ( bench_model.Vp_workload.Spec_model.name,
                Vliw_vp.Experiments.comparison_of p );
            ]
          in
          fun () -> Vliw_vp.Experiments.render_comparison rows));
    Test.make ~name:"example(fig2/3)"
      (Staged.stage (fun () -> Vliw_vp.Example.cases ()));
    Test.make ~name:"regions"
      (Staged.stage (fun () ->
           Vliw_vp.Experiments.render_regions
             (run (fun g ->
                  Vliw_vp.Experiments.regions g ~config:bench_config
                    [ bench_model ]))));
    (* Identical work to [regions] plus [hyperblocks], but guaranteed to
       start against warm region caches (one untimed prewarm run fills the
       formation memo, the spec-unit memos and the whole-run memo) — the
       number the region fast lane is accountable for. *)
    Test.make ~name:"sweep:regions-warm"
      (Staged.stage
         (let warm () =
            ignore
              (Vliw_vp.Experiments.render_regions
                 (run (fun g ->
                      Vliw_vp.Experiments.regions g ~config:bench_config
                        [ bench_model ])));
            Vliw_vp.Experiments.render_hyperblocks
              (run (fun g ->
                   Vliw_vp.Experiments.hyperblocks g ~config:bench_config
                     [ bench_model ]))
          in
          let () = ignore (warm ()) in
          warm));
    (* The frontier sweep at a reduced 2x2x2 grid: cross-point sharing
       (one formation per formation key, whichever the width, one base
       run per width, and the base run's spec-unit artifacts for every
       formed program's residual blocks) is what keeps this sublinear in
       grid size. *)
    Test.make ~name:"sweep:regions-frontier"
      (Staged.stage (fun () ->
           Vliw_vp.Experiments.render_regions_frontier
             (run (fun g ->
                  Vliw_vp.Experiments.regions_frontier g ~config:bench_config
                    ~max_blocks:[ 2; 4 ] ~min_probabilities:[ 0.50; 0.80 ]
                    ~widths:[ 4; 8 ] [ bench_model ]))));
    Test.make ~name:"overlap-validation"
      (Staged.stage (fun () ->
           run (fun g ->
               Vliw_vp.Experiments.overlap_validation g ~config:bench_config
                 ~executions:100 [ bench_model ])));
    Test.make ~name:"hardware-validation"
      (Staged.stage (fun () ->
           Vliw_vp.Trace_sim.run ~executions:500
             (Vliw_vp.Pipeline.run ~config:bench_config bench_model)));
    Test.make ~name:"ablation:threshold"
      (Staged.stage (fun () -> run threshold_ablation));
    (* Identical work to [ablation:threshold], but guaranteed to start
       against a warm spec-unit cache (one untimed prewarm run) — so
       BENCH.json records the warm-path number explicitly even in smoke
       runs too short for the first target to reach steady state. *)
    Test.make ~name:"sweep:ablation-warm"
      (Staged.stage
         (let () = ignore (run threshold_ablation) in
          fun () -> run threshold_ablation));
    (* The whole run_all suite (every benchmark) through the job graph at
       the reduced configuration — the end-to-end number the suite
       executor is accountable for: declaration, scheduling, in-flight
       dedup and the reduction, not just one benchmark's simulations. *)
    Test.make ~name:"sweep:suite-graph"
      (Staged.stage
         (let models = Vp_workload.Spec_model.all in
          fun () ->
            run (fun g ->
                Vliw_vp.Experiments.run_all g ~config:bench_config models)));
    (* One warm submit round-trip through the daemon: request frame in,
       dedup hit on the finished render node, result + done frames out. *)
    Test.make ~name:"serve:warm-submit"
      (Staged.stage (fun () ->
           Vp_serve.Client.submit (serve_client ())
             (Vp_serve.Client.submit_spec ~experiments:[ "table2" ] ())));
    (* Eight overlapping submits of the same artifact pipelined on one
       connection — the in-flight-dedup path under concurrent load; the
       payload still runs zero times (warm), so this prices the admission,
       routing and streaming envelope alone. *)
    Test.make ~name:"serve:overlap-dedup"
      (Staged.stage (fun () ->
           let client = serve_client () in
           let ids =
             List.init 8 (fun _ ->
                 Vp_serve.Client.submit_async client
                   (Vp_serve.Client.submit_spec ~experiments:[ "table2" ] ()))
           in
           List.iter (fun id -> ignore (Vp_serve.Client.await client ~id)) ids));
    (* One cold submit against the sharded daemon (a real [--workers N]
       subprocess): every sample uses a fresh seed, so the graph, the
       spec-unit cache and the on-disk store all miss — the number is the
       full sharded serving envelope plus one reduced-config simulation,
       never a dedup hit. *)
    Test.make ~name:"serve:sharded-cold" (Staged.stage sharded_cold_submit);
    (* Core kernels. *)
    Test.make ~name:"kernel:list-schedule"
      (Staged.stage (fun () ->
           Vp_sched.List_scheduler.schedule_block kernel_machine kernel_block));
    (* One dependence graph of the same block: the unit of work the
       scheduler and the transform repeat (the transform builds one per
       schedule fixpoint round; its selection reads the baseline graph
       through a predicted-load mask). *)
    Test.make ~name:"kernel:depgraph-build"
      (Staged.stage (fun () ->
           Vp_ir.Depgraph.build
             ~latency:(Vp_machine.Descr.latency kernel_machine)
             kernel_block));
    Test.make ~name:"kernel:transform"
      (Staged.stage (fun () ->
           Vp_vspec.Transform.apply kernel_machine
             ~rate:(fun _ -> Some 0.9)
             kernel_block));
    (* Raw superblock formation (selection + merge + stitch), bypassing the
       [Region_unit] memo — the cost one formation-memo miss pays, and the
       baseline the warm region targets are measured against. *)
    Test.make ~name:"kernel:superblock-form"
      (Staged.stage
         (let w = Vp_workload.Workload.generate bench_model in
          let cfg = Vp_workload.Cfg.derive ~seed:42 w in
          fun () ->
            Vp_region.Superblock.form w cfg
              Vp_region.Superblock.default_params));
    Test.make ~name:"kernel:bitset-one"
      (Staged.stage (fun () ->
           Vp_engine.Compiled.run_bitset kernel_compiled kernel_lanes
             ~vectors:[| [| false; true |] |]));
    Test.make ~name:"kernel:dual-engine-oracle"
      (Staged.stage (fun () ->
           Vp_engine.Dual_engine.run kernel_spec ~reference:kernel_reference
             ~live_in:Vp_engine.Reference.live_in ~outcomes:[| false; true |]));
    Test.make ~name:"kernel:compile"
      (Staged.stage (fun () ->
           Vp_engine.Compiled.compile kernel_spec ~reference:kernel_reference
             ~live_in:Vp_engine.Reference.live_in));
    (* The unboxed predictor kernels on 512 values: the paper's predictor
       pair (stride + order-2 FCM) scored in one pass, with fresh states
       (including the FCM table) built per call. *)
    Test.make ~name:"kernel:predictor-pass"
      (Staged.stage
         (let values = Array.init 512 (fun i -> 7 * i) in
          let kinds =
            [
              Vp_predict.Predictor.Stride;
              Vp_predict.Predictor.Fcm { order = 2; table_bits = 12 };
            ]
          in
          fun () ->
            Vp_predict.Kernel.accuracies ~kinds values ~off:0 ~len:512));
    (* A whole value profile of the bench model over warm stream arenas —
       the profiling path the tables/figure sweeps pay on their first run
       per (model, seed, predictors). Reduced sample cap so the target
       stays comfortably microsecond-scale under the kernel gate. *)
    Test.make ~name:"kernel:value-profile"
      (Staged.stage
         (let w = Vp_workload.Workload.generate bench_model in
          let () =
            ignore (Vp_profile.Value_profile.profile ~max_samples:500 w)
          in
          fun () -> Vp_profile.Value_profile.profile ~max_samples:500 w));
    (* The same pair the profiler runs per load — one reusable pass over a
       2000-value arena. Compare with kernel:predictor-pass, which builds
       fresh states (including the FCM table) per call for a 512-value
       slice. *)
    Test.make ~name:"kernel:value-profile-pass"
      (Staged.stage
         (let values = Array.init 2000 (fun i -> i * 7 land 4095) in
          let pass =
            Vp_predict.Kernel.make_pass
              ~kinds:
                [
                  Vp_predict.Predictor.Stride;
                  Vp_predict.Predictor.Fcm { order = 2; table_bits = 12 };
                ]
          in
          fun () ->
            Vp_predict.Kernel.run_pass pass values ~off:0 ~len:2000));
    (* One VP-table slot's whole predict-and-train sequence — the fused
       hybrid stride+FCM kernel the trace simulator's fast lane runs per
       slot batch. Same 2000-value arena as kernel:value-profile-pass. *)
    Test.make ~name:"kernel:vp-table-pass"
      (Staged.stage
         (let values = Array.init 2000 (fun i -> i * 7 land 4095) in
          let table = Vp_predict.Vp_table.create ~entries:64 () in
          let correct = Bytes.create 2000 in
          fun () ->
            Vp_predict.Vp_table.run_slot_uniform table ~pc:42 values
              ~len:2000 ~correct));
    (* One static-recovery comparison of a prebuilt pipeline: the dynamic
       trace (one prepared-sampler draw per execution) and the two flat
       icache walks — what each comparison leaf pays on a store miss. *)
    Test.make ~name:"kernel:cache-comparison"
      (Staged.stage
         (let p = Vliw_vp.Pipeline.run ~config:bench_config bench_model in
          fun () -> Vliw_vp.Experiments.comparison_of p));
    (* The trace simulator alone against a prebuilt pipeline — the phased
       fast lane without hardware-validation's (memoized) pipeline
       rebuild. *)
    Test.make ~name:"kernel:trace-sim"
      (Staged.stage
         (let p = Vliw_vp.Pipeline.run ~config:bench_config bench_model in
          fun () -> Vliw_vp.Trace_sim.run ~executions:500 p));
    (* The bit-parallel engine on a dense outcome set: 63 vectors of the
       densest block, one full lane word (duplicates — a Monte-Carlo batch
       shape — share a lane). kernel:bitset-pair runs the same block's
       all-correct / all-incorrect pair, the best/worst vectors every
       scenario batch carries, as a two-lane word. *)
    Test.make ~name:"kernel:bitset-scenarios"
      (Staged.stage (fun () ->
           Vp_engine.Compiled.run_bitset bitset_compiled bitset_lanes
             ~vectors:bitset_vectors));
    Test.make ~name:"kernel:bitset-pair"
      (Staged.stage (fun () ->
           Vp_engine.Compiled.run_bitset bitset_compiled bitset_lanes
             ~vectors:bitset_pair));
  ]

let run_bechamel () =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  (* 1s per target: the experiment-level targets run ~10-50 ms each, so
     a 0.25s quota left the OLS with a handful of samples and ±10%
     run-to-run swings — too noisy to track BENCH.json deltas. *)
  let full_cfg =
    Benchmark.cfg ~limit:300 ~quota:(Time.second 1.0) ~kde:(Some 100) ()
  in
  let smoke_cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.05) () in
  (* Full quota but no per-sample heap stabilization: a sample's
     response frames may still be in flight on the daemon domain when
     the next sample's stabilization would run. (The unconditional
     per-test stabilization is fine — the daemon is idle-quiescent
     between tests.) *)
  let serve_cfg =
    Benchmark.cfg ~stabilize:false ~limit:300 ~quota:(Time.second 1.0)
      ~kde:(Some 100) ()
  in
  (* The gated targets are the CI regression gate (bench/check.ml compares
     them against the committed BENCH.json, which is produced at full
     quota): every kernel:* target at the tight threshold, plus the
     sweep-level targets below at a loose one. The smoke quota is far too
     noisy to gate on, so gated targets always run at full quota — the
     kernels are µs-scale and the sweeps ms-scale, so that costs seconds —
     and smoke mode only downgrades the remaining informational targets. *)
  let gated_sweeps =
    [
      "table4";
      "ablation:threshold";
      "sweep:ablation-warm";
      "sweep:regions-warm";
      "hardware-validation";
      "sweep:suite-graph";
      "serve:warm-submit";
      "serve:overlap-dedup";
      "serve:sharded-cold";
    ]
  in
  let is_gated t =
    let n = Test.name t in
    (String.length n >= 7 && String.sub n 0 7 = "kernel:")
    || List.mem n gated_sweeps
  in
  let is_serve t =
    let n = Test.name t in
    String.length n >= 6 && String.sub n 0 6 = "serve:"
  in
  let run cfg = function
    | [] -> []
    | tests ->
        let raw =
          Benchmark.all cfg [ instance ]
            (Test.make_grouped ~name:"vliw-vp" ~fmt:"%s %s" tests)
        in
        let results = Analyze.all ols instance raw in
        Hashtbl.fold
          (fun name ols_result acc ->
            let est =
              match Analyze.OLS.estimates ols_result with
              | Some [ est ] -> Some est
              | Some _ | None -> None
            in
            (name, est) :: acc)
          results []
  in
  (* Serve targets run last, in their own pass: starting the daemon any
     earlier would leave its domain allocating through every other
     target's stabilization. They are gated, so they keep full quota
     even in smoke mode. *)
  let serve_tests, tests = List.partition is_serve tests in
  let main_rows =
    if smoke then
      let gated_tests, other_tests = List.partition is_gated tests in
      run full_cfg gated_tests @ run smoke_cfg other_tests
    else run full_cfg tests
  in
  let serve_rows =
    ignore (serve_client ());
    (* Untimed warm-up: pays the sharded daemon's fork/startup and the
       first connection, so no timed sample does. *)
    sharded_cold_submit ();
    run serve_cfg serve_tests
  in
  let rows = main_rows @ serve_rows in
  section "Bechamel micro-benchmarks (monotonic clock, ns/run)";
  let rows = List.sort compare rows in
  List.iter
    (fun (name, est) ->
      match est with
      | Some est -> Printf.printf "%-40s %14.0f ns/run\n" name est
      | None -> Printf.printf "%-40s (no estimate)\n" name)
    rows;
  (match
     ( List.assoc_opt "vliw-vp kernel:bitset-one" rows,
       List.assoc_opt "vliw-vp kernel:dual-engine-oracle" rows )
   with
  | Some (Some kernel), Some (Some oracle) when kernel > 0.0 ->
      Printf.printf "%-40s %14.1fx\n" "kernel speedup (oracle/compiled)"
        (oracle /. kernel)
  | _ -> ());
  rows

(* Machine-readable results: one object per Bechamel test. Names contain
   only ASCII identifier-ish characters plus "()/:" — escape the JSON
   specials anyway. *)
let write_json path rows =
  let escape s =
    let b = Buffer.create (String.length s) in
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\n  \"results\": [\n";
      List.iteri
        (fun i (name, est) ->
          output_string oc
            (Printf.sprintf "    {\"name\": \"%s\", \"ns_per_run\": %s}%s\n"
               (escape name)
               (match est with
               | Some e -> Printf.sprintf "%.1f" e
               | None -> "null")
               (if i = List.length rows - 1 then "" else ",")))
        rows;
      output_string oc "  ]\n}\n");
  Printf.eprintf "bench: wrote %s\n%!" path

let () =
  (* Bechamel first, on a fresh heap: the kernel:* numbers written to
     BENCH.json are the regression-gate baseline that bench/check.exe
     compares against smoke runs, and smoke mode never executes
     [full_run] — measuring after it would bake a multi-hundred-MB live
     heap (and its minor-GC cost) into the baseline but not the
     candidate. *)
  let rows = run_bechamel () in
  shutdown_serve ();
  shutdown_sharded ();
  Option.iter (fun path -> write_json path rows) json_path;
  if not smoke then begin
    full_run ();
    emit_telemetry ()
  end
