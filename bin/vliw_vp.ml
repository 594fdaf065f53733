(* Command-line driver for the VLIW value-prediction reproduction.

   Every experiment of the paper is reachable from here:

     vliw_vp example              the Figures 2/3 worked example
     vliw_vp summary  -b li       workload + profile overview
     vliw_vp schedule -b li -i 3  original vs speculative schedule of a block
     vliw_vp table2 / table3 / table4 / fig8 / compare / all
*)

let models_of_names names =
  Result.map_error
    (Printf.sprintf "unknown benchmark %S")
    (Vp_workload.Spec_model.resolve names)

(* --- common command-line terms --- *)

open Cmdliner

(* Only the machine presets' widths are accepted, so a bad width is one
   usage error here rather than an exception in every job. *)
let width_t =
  let doc = "Machine issue width (2, 4, 8 or 16)." in
  let parse s =
    Result.bind (Arg.conv_parser Arg.int s) (fun w ->
        Result.map_error
          (fun m -> `Msg (Printf.sprintf "invalid value '%s', %s" s m))
          (Vp_machine.Descr.check_width w))
  in
  let width = Arg.conv ~docv:"WIDTH" (parse, Format.pp_print_int) in
  Arg.(value & opt width 4 & info [ "w"; "width" ] ~docv:"WIDTH" ~doc)

let seed_t =
  let doc = "Master random seed (workloads, scenario sampling)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let threshold_t =
  let doc = "Value-profile prediction threshold (paper: 0.65)." in
  Arg.(value & opt float 0.65 & info [ "threshold" ] ~docv:"RATE" ~doc)

let benchmarks_t =
  let doc =
    "Comma-separated benchmark subset (default: all eight). Names: \
     compress, ijpeg (alias tjpeg), li, m88ksim, vortex, hydro2d, swim, \
     tomcatv."
  in
  Arg.(
    value
    & opt (list string) []
    & info [ "b"; "benchmarks" ] ~docv:"NAMES" ~doc)

let csv_t =
  let doc = "Emit CSV instead of the aligned table." in
  Arg.(value & flag & info [ "csv" ] ~doc)

(* --- execution context (Vp_exec): workers, cache, telemetry --- *)

let jobs_t =
  let doc =
    "Worker domains for the experiment jobs. 1 (the default) runs \
     sequentially in-process; any value produces byte-identical output."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let no_cache_t =
  let doc = "Disable the on-disk result cache." in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let cache_dir_t =
  let doc = "Result-cache directory." in
  Arg.(
    value
    & opt string Vp_exec.Store.default_dir
    & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let telemetry_t =
  let doc =
    "Write the JSON telemetry summary (jobs, cache hits/misses, wall \
     times, worker utilization) to $(docv); \"-\" means stderr."
  in
  Arg.(
    value & opt (some string) None & info [ "telemetry" ] ~docv:"FILE" ~doc)

(* The flag vocabulary and its semantics live in [Vp_exec.Cli], shared with
   the bench harness; this front end only maps cmdliner terms onto it. *)
let exec_opts_t =
  let pack jobs no_cache cache_dir telemetry =
    { Vp_exec.Cli.jobs; no_cache; cache_dir; telemetry }
  in
  Term.(const pack $ jobs_t $ no_cache_t $ cache_dir_t $ telemetry_t)

(* The compute layers' cache and scenario-engine counters ride along in
   the telemetry JSON next to the job-graph stats. *)
let emit_telemetry opts exec =
  Vp_exec.Cli.emit_telemetry
    ~extra:(Vliw_vp.Experiments.telemetry_sections ())
    opts exec

let with_setup f =
  let run width seed threshold names exec_opts =
    match models_of_names names with
    | Error m -> `Error (false, m)
    | Ok models ->
        let exec = Vp_exec.Cli.context exec_opts in
        f ~config:(Vliw_vp.Config.make ~width ~seed ~threshold) ~exec ~models;
        emit_telemetry exec_opts exec;
        `Ok ()
  in
  Term.(
    ret (const run $ width_t $ seed_t $ threshold_t $ benchmarks_t $ exec_opts_t))

(* --- commands --- *)

let example_cmd =
  let run () = Format.printf "%a@." Vliw_vp.Example.describe () in
  Cmd.v
    (Cmd.info "example"
       ~doc:"Reproduce the paper's Figures 2/3 worked example")
    Term.(const run $ const ())

let summary_cmd =
  let f ~config ~exec ~models =
    List.iter
      (fun model ->
        let p = Vliw_vp.Pipeline.run ~config ~exec model in
        Format.printf "%a@." Vp_workload.Workload.pp_summary p.workload;
        let spec =
          Array.fold_left
            (fun acc (b : Vliw_vp.Pipeline.block_eval) ->
              if b.spec <> None then acc + 1 else acc)
            0 p.blocks
        in
        Format.printf
          "mean prediction rate %.3f; %d/%d blocks speculated@.@."
          (Vp_profile.Value_profile.mean_rate p.profile)
          spec (Array.length p.blocks))
      models
  in
  Cmd.v
    (Cmd.info "summary" ~doc:"Workload and profile overview per benchmark")
    (with_setup f)

let profile_cmd =
  let f ~config ~exec:_ ~models =
    List.iter
      (fun model ->
        let workload =
          Vp_workload.Workload.generate ~seed:config.Vliw_vp.Config.seed model
        in
        let profile = Vp_profile.Value_profile.profile workload in
        Format.printf "=== %s ===@.%a@."
          model.Vp_workload.Spec_model.name Vp_profile.Value_profile.pp
          profile)
      models
  in
  Cmd.v
    (Cmd.info "profile" ~doc:"Per-load stride/FCM value profile")
    (with_setup f)

let schedule_cmd =
  let block_t =
    let doc = "Block index within the benchmark." in
    Arg.(value & opt int 0 & info [ "i"; "block" ] ~docv:"INDEX" ~doc)
  in
  let dot_t =
    let doc =
      "Emit the transformed block's dependence graph as Graphviz DOT (critical path highlighted) instead of the schedules."
    in
    Arg.(value & flag & info [ "dot" ] ~doc)
  in
  let run width seed threshold names index dot =
    match models_of_names names with
    | Error m -> `Error (false, m)
    | Ok models ->
        let config = Vliw_vp.Config.make ~width ~seed ~threshold in
        List.iter
          (fun model ->
            let p = Vliw_vp.Pipeline.run ~config model in
            if index < 0 || index >= Array.length p.blocks then
              Format.printf "%s: block %d out of range (0..%d)@."
                model.Vp_workload.Spec_model.name index
                (Array.length p.blocks - 1)
            else
              match p.blocks.(index).spec with
              | Some spec ->
                  if dot then
                    print_string
                      (Vp_ir.Depgraph.to_dot
                         ~highlight:(Vp_ir.Depgraph.critical_path spec.sb.graph)
                         spec.sb.graph)
                  else Format.printf "%a@." Vp_vspec.Spec_block.pp spec.sb
              | None ->
                  Format.printf "%s block %d not speculated: %s@."
                    model.Vp_workload.Spec_model.name index
                    (Option.value ~default:"?" p.blocks.(index).skip_reason))
          models;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "schedule"
       ~doc:"Show a block's original and speculative schedules")
    Term.(
      ret
        (const run $ width_t $ seed_t $ threshold_t $ benchmarks_t $ block_t
       $ dot_t))

let table_cmd name ~doc render =
  let run width seed threshold names csv exec_opts =
    match models_of_names names with
    | Error m -> `Error (false, m)
    | Ok models ->
        let config = Vliw_vp.Config.make ~width ~seed ~threshold in
        let format = if csv then `Csv else `Ascii in
        let exec = Vp_exec.Cli.context exec_opts in
        print_string
          (render ~format (Vliw_vp.Experiments.run_all ~config ~exec models));
        emit_telemetry exec_opts exec;
        `Ok ()
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      ret
        (const run $ width_t $ seed_t $ threshold_t $ benchmarks_t $ csv_t
       $ exec_opts_t))

(* A command that renders one experiment's own rows (not [run_all]'s
   summaries). *)
let experiment_cmd name ~doc experiment render =
  let run width seed threshold names csv exec_opts =
    match models_of_names names with
    | Error m -> `Error (false, m)
    | Ok models ->
        let config = Vliw_vp.Config.make ~width ~seed ~threshold in
        let format = if csv then `Csv else `Ascii in
        let exec = Vp_exec.Cli.context exec_opts in
        print_string (render ~format (experiment ~config ~exec models));
        emit_telemetry exec_opts exec;
        `Ok ()
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      ret
        (const run $ width_t $ seed_t $ threshold_t $ benchmarks_t $ csv_t
       $ exec_opts_t))

let table4_cmd =
  experiment_cmd "table4" ~doc:"Reproduce Table 4 (issue width 4 vs 8)"
    (fun ~config ~exec models ->
      Vliw_vp.Experiments.table4 ~config ~exec models)
    (fun ~format rows -> Vliw_vp.Experiments.render_table4 ~format rows)

let compare_cmd =
  experiment_cmd "compare"
    ~doc:"Compare against the static-recovery scheme of [4]"
    (fun ~config ~exec models ->
      Vliw_vp.Experiments.comparison ~config ~exec models)
    (fun ~format rows -> Vliw_vp.Experiments.render_comparison ~format rows)

let regions_cmd =
  let f ~config ~exec ~models =
    print_string
      (Vliw_vp.Experiments.render_regions
         (Vliw_vp.Experiments.regions ~config ~exec models))
  in
  Cmd.v
    (Cmd.info "regions"
       ~doc:
         "Superblock-region extension: basic-block vs region-granularity value prediction")
    (with_setup f)

let frontier_cmd =
  let f ~config ~exec ~models =
    print_string
      (Vliw_vp.Experiments.render_regions_frontier
         (Vliw_vp.Experiments.regions_frontier ~config ~exec models))
  in
  Cmd.v
    (Cmd.info "frontier"
       ~doc:
         "Region-parameter frontier: sweep superblock formation (max blocks \
          x min edge probability) across machine widths")
    (with_setup f)

let ablate_cmd =
  let sweep_t =
    let doc =
      Printf.sprintf "Which sweep: %s."
        (String.concat ", " (List.map fst Vliw_vp.Experiments.ablation_sweeps))
    in
    Arg.(value & opt string "threshold" & info [ "sweep" ] ~docv:"NAME" ~doc)
  in
  let run width seed threshold names sweep exec_opts =
    match models_of_names names with
    | Error m -> `Error (false, m)
    | Ok models -> (
        let config = Vliw_vp.Config.make ~width ~seed ~threshold in
        match List.assoc_opt sweep Vliw_vp.Experiments.ablation_sweeps with
        | None -> `Error (false, Printf.sprintf "unknown sweep %S" sweep)
        | Some settings ->
            let exec = Vp_exec.Cli.context exec_opts in
            (* All models' sweeps on one graph: a later model's points can
               run while an earlier model's reducer still waits. *)
            let g = Vp_exec.Graph.create exec in
            let nodes =
              List.map
                (fun model ->
                  (model, Vliw_vp.Experiments.Suite.ablate g ~config model settings))
                models
            in
            List.iter
              (fun ((model : Vp_workload.Spec_model.t), node) ->
                print_string
                  (Vliw_vp.Experiments.render_ablation
                     ~title:
                       (Printf.sprintf "%s: %s sweep"
                          model.Vp_workload.Spec_model.name sweep)
                     (Vp_exec.Graph.await g node));
                print_newline ())
              nodes;
            emit_telemetry exec_opts exec;
            `Ok ())
  in
  Cmd.v
    (Cmd.info "ablate" ~doc:"Ablation sweeps over the design's knobs")
    Term.(
      ret
        (const run $ width_t $ seed_t $ threshold_t $ benchmarks_t $ sweep_t
       $ exec_opts_t))

let stability_cmd =
  let f ~config ~exec ~models =
    print_string
      (Vliw_vp.Experiments.render_stability
         (Vliw_vp.Experiments.stability ~config ~exec models))
  in
  Cmd.v
    (Cmd.info "stability"
       ~doc:"Headline results across workload seeds (mean +/- sd)")
    (with_setup f)

let overlap_cmd =
  let f ~config ~exec ~models =
    print_string
      (Vliw_vp.Experiments.render_overlap
         (Vliw_vp.Experiments.overlap_validation ~config ~exec models))
  in
  Cmd.v
    (Cmd.info "overlap"
       ~doc:
         "Validate the per-block accounting against a shared-clock block sequence")
    (with_setup f)

let hyperblocks_cmd =
  let f ~config ~exec ~models =
    print_string
      (Vliw_vp.Experiments.render_hyperblocks
         (Vliw_vp.Experiments.hyperblocks ~config ~exec models))
  in
  Cmd.v
    (Cmd.info "hyperblocks"
       ~doc:
         "Hyperblock (if-conversion) extension: predicated regions vs basic \
          blocks")
    (with_setup f)

let hardware_cmd =
  let f ~config ~exec ~models =
    print_string
      (Vliw_vp.Trace_sim.render
         (Vliw_vp.Experiments.hardware_validation ~config ~exec models))
  in
  Cmd.v
    (Cmd.info "hardware"
       ~doc:
         "Hardware-mode validation: whole-program trace simulation with a run-time value-prediction table")
    (with_setup f)

let run_cmd =
  let file_t =
    let doc = "Assembly file (see lib/ir/asm.mli for the syntax)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let rate_t =
    let doc = "Profiled prediction rate for loads without a !R annotation." in
    Arg.(value & opt float 0.9 & info [ "rate" ] ~docv:"RATE" ~doc)
  in
  let trace_t =
    let doc = "Print the cycle-by-cycle engine trace (the Figure-7 view) of every simulated scenario." in
    Arg.(value & flag & info [ "trace" ] ~doc)
  in
  let run width seed threshold file default_rate show_trace =
    ignore seed;
    match Vp_ir.Asm.parse_file file with
    | Error e -> `Error (false, Printf.sprintf "%s: %s" file e)
    | Ok (block, rates) -> (
        let machine = Vp_machine.Descr.playdoh ~width in
        let rate (op : Vp_ir.Operation.t) =
          if not (Vp_ir.Operation.is_load op) then None
          else
            Some (Option.value ~default:default_rate (List.assoc_opt op.id rates))
        in
        let policy = { Vp_vspec.Policy.default with threshold } in
        match Vp_vspec.Transform.apply ~policy machine ~rate block with
        | Vp_vspec.Transform.Unchanged reason ->
            Format.printf "not speculated: %s@.%a@." reason
              Vp_sched.Schedule.pp
              (Vp_sched.List_scheduler.schedule_block machine block);
            `Ok ()
        | Vp_vspec.Transform.Speculated sb ->
            Format.printf "%a@.@." Vp_vspec.Spec_block.pp sb;
            let load_values (i : int) =
              match (Vp_ir.Block.op block i).stream with
              | Some s -> 1000 + (37 * s)
              | None -> 0
            in
            let reference =
              Vp_engine.Reference.run block ~load_values
                ~live_in:Vp_engine.Reference.live_in
            in
            let n = Vp_vspec.Spec_block.num_predictions sb in
            if n <= 4 then
              List.iter
                (fun outcomes ->
                  let observer, trace =
                    Vp_engine.Engine_trace.collector ()
                  in
                  let r =
                    Vp_engine.Dual_engine.run ~observer sb ~reference
                      ~live_in:Vp_engine.Reference.live_in ~outcomes
                  in
                  Format.printf
                    "%a: %d cycles (original %d), %d stalls, %d flushed, %d recomputed@."
                    Vp_engine.Scenario.pp outcomes r.cycles
                    (Vp_vspec.Spec_block.original_length sb)
                    r.stall_cycles r.flushed r.recomputed;
                  if show_trace then
                    Format.printf "%a@." Vp_engine.Engine_trace.pp (trace ()))
                (Vp_engine.Scenario.enumerate n)
            else
              Format.printf
                "(%d predictions: too many scenarios to enumerate)@." n;
            `Ok ())
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Transform and simulate a hand-written block (assembly syntax, see lib/ir/asm.mli)")
    Term.(
      ret
        (const run $ width_t $ seed_t $ threshold_t $ file_t $ rate_t $ trace_t))

let simulate_cmd =
  let file_t =
    let doc = "Assembly program file (blocks separated by 'label NAME [* COUNT]:' lines)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let rate_t =
    let doc = "Profiled prediction rate for loads without a !R annotation." in
    Arg.(value & opt float 0.9 & info [ "rate" ] ~docv:"RATE" ~doc)
  in
  let length_t =
    let doc = "Dynamic block executions to simulate." in
    Arg.(value & opt int 200 & info [ "n"; "length" ] ~docv:"N" ~doc)
  in
  let run width seed threshold file default_rate length =
    let ic = open_in file in
    let source =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Vp_ir.Asm.parse_program ~name:(Filename.basename file) source with
    | Error e -> `Error (false, Printf.sprintf "%s: %s" file e)
    | Ok (program, rates) ->
        let machine = Vp_machine.Descr.playdoh ~width in
        let policy = { Vp_vspec.Policy.default with threshold } in
        let live_in = Vp_engine.Reference.live_in in
        let load_values (op : Vp_ir.Operation.t) =
          match op.stream with Some s -> 1000 + (37 * s) | None -> 0
        in
        (* compile every block once *)
        let compiled =
          Array.mapi
            (fun bi (wb : Vp_ir.Program.weighted_block) ->
              let rate (op : Vp_ir.Operation.t) =
                if not (Vp_ir.Operation.is_load op) then None
                else
                  Some
                    (Option.value ~default:default_rate
                       (List.assoc_opt ((bi * 1000) + op.id) rates))
              in
              let reference =
                Vp_engine.Reference.run wb.block
                  ~load_values:(fun i -> load_values (Vp_ir.Block.op wb.block i))
                  ~live_in
              in
              let schedule =
                Vp_sched.List_scheduler.schedule_block machine wb.block
              in
              ( wb,
                reference,
                schedule,
                match Vp_vspec.Transform.apply ~policy machine ~rate wb.block with
                | Vp_vspec.Transform.Speculated sb -> Some sb
                | Vp_vspec.Transform.Unchanged _ -> None ))
            (Vp_ir.Program.blocks program)
        in
        let rng = Vp_util.Rng.create seed in
        let blocks =
          Vp_util.Rng.sampler
            (Array.map
               (fun ((wb : Vp_ir.Program.weighted_block), _, _, _) ->
                 float_of_int (max 1 wb.count))
               compiled)
        in
        let baseline = ref 0 in
        let items =
          List.init length (fun _ ->
              let bi = Vp_util.Rng.sample rng blocks in
              let _, reference, schedule, spec = compiled.(bi) in
              baseline := !baseline + Vp_sched.Schedule.length schedule;
              match spec with
              | None -> Vp_engine.Dual_engine.Plain (schedule, reference)
              | Some sb ->
                  let rates =
                    Array.map
                      (fun (p : Vp_vspec.Spec_block.predicted_load) -> p.rate)
                      sb.predicted
                  in
                  Vp_engine.Dual_engine.Speculated
                    {
                      sb;
                      reference;
                      outcomes = Vp_engine.Scenario.sample rng ~rates;
                    })
        in
        let r = Vp_engine.Dual_engine.run_sequence ~live_in items in
        Printf.printf
          "%d dynamic blocks: %d cycles with value prediction, %d without (%.3fx);\n%d stalls, %d flushed, %d recomputed, CCB high water %d, state %s\n"
          length r.total_cycles !baseline
          (float_of_int !baseline /. float_of_int (max 1 r.total_cycles))
          r.stall_cycles r.flushed r.recomputed r.ccb_high_water
          (if r.state_ok then "ok" else "MISMATCH");
        `Ok ()
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:
         "Whole-program simulation of a hand-written assembly program on the shared-clock sequence engine")
    Term.(
      ret
        (const run $ width_t $ seed_t $ threshold_t $ file_t $ rate_t
       $ length_t))

let report_cmd =
  let out_t =
    let doc = "Write the markdown report to $(docv) instead of stdout." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run width seed threshold names out exec_opts =
    match models_of_names names with
    | Error m -> `Error (false, m)
    | Ok models ->
        let config = Vliw_vp.Config.make ~width ~seed ~threshold in
        let exec = Vp_exec.Cli.context exec_opts in
        (match out with
        | Some path ->
            Vliw_vp.Report.write_file ~config ~exec ~models ~path ();
            Printf.printf "report written to %s\n" path
        | None ->
            print_string (Vliw_vp.Report.generate ~config ~exec ~models ()));
        emit_telemetry exec_opts exec;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Generate the full evaluation as one markdown document")
    Term.(
      ret
        (const run $ width_t $ seed_t $ threshold_t $ benchmarks_t $ out_t
       $ exec_opts_t))

let all_cmd =
  let f ~config ~exec ~models =
    (* Declare every experiment on one graph before the first await: jobs
       from different tables interleave barrier-free, and [table4]'s
       narrow-width points and the comparison leaves dedup onto
       [run_all]'s benchmark jobs while they are still in flight. *)
    let module S = Vliw_vp.Experiments.Suite in
    let g = Vp_exec.Graph.create exec in
    let summaries_n = S.run_all g ~config models in
    let table4_n = S.table4 g ~config models in
    let comparison_n = S.comparison g ~config models in
    let regions_n = S.regions g ~config models in
    let overlap_n = S.overlap_validation g ~config models in
    let await n = Vp_exec.Graph.await g n in
    let summaries = await summaries_n in
    print_string (Vliw_vp.Experiments.render_table2 summaries);
    print_newline ();
    print_string (Vliw_vp.Experiments.render_table3 summaries);
    print_newline ();
    print_string (Vliw_vp.Experiments.render_table4 (await table4_n));
    print_newline ();
    print_string (Vliw_vp.Experiments.render_figure8 summaries);
    print_newline ();
    print_string (Vliw_vp.Experiments.render_comparison (await comparison_n));
    print_newline ();
    print_string (Vliw_vp.Experiments.render_regions (await regions_n));
    print_newline ();
    print_string (Vliw_vp.Experiments.render_overlap (await overlap_n));
    print_newline ();
    Format.printf "%a@." Vliw_vp.Example.describe ()
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Run every experiment (tables 2-4, figure 8, comparison, example)")
    (with_setup f)

(* --- serve / submit: the resident daemon and its client --- *)

let socket_t =
  let doc = "Unix socket path of the daemon." in
  Arg.(
    value
    & opt string "/tmp/vliw_vp.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let port_t =
    let doc = "Also listen on 127.0.0.1:$(docv) (TCP)." in
    Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let max_pending_t =
    let doc = "Server-wide cap on admitted-but-unfinished requests." in
    Arg.(value & opt int 64 & info [ "max-pending" ] ~docv:"N" ~doc)
  in
  let quota_t =
    let doc = "Per-connection cap on admitted-but-unfinished requests." in
    Arg.(value & opt int 16 & info [ "client-quota" ] ~docv:"N" ~doc)
  in
  let timeout_t =
    let doc = "Default per-request timeout in seconds (0 disables)." in
    Arg.(value & opt float 300.0 & info [ "timeout" ] ~docv:"SECONDS" ~doc)
  in
  let stats_file_t =
    let doc = "Write a JSON telemetry snapshot to $(docv) periodically." in
    Arg.(
      value & opt (some string) None & info [ "stats-file" ] ~docv:"FILE" ~doc)
  in
  let stats_every_t =
    let doc = "Snapshot period in seconds for $(b,--stats-file)." in
    Arg.(value & opt float 10.0 & info [ "stats-every" ] ~docv:"SECONDS" ~doc)
  in
  let workers_t =
    let doc =
      "Shard worker processes, each with its own resident job graph and \
       $(b,--jobs) worker domains, routed by artifact identity over the \
       shared on-disk store. 0 runs the daemon in-process (one shared \
       graph, no forking). The default derives from the machine's core \
       count divided by $(b,--jobs)."
    in
    Arg.(value & opt (some int) None & info [ "workers" ] ~docv:"N" ~doc)
  in
  let node_cache_t =
    let doc =
      "Cap on resident graph nodes (per shard): completed nodes beyond the \
       cap are evicted coldest-first; their results stay in the on-disk \
       store. 0 (the default) is unbounded."
    in
    Arg.(value & opt int 0 & info [ "node-cache" ] ~docv:"N" ~doc)
  in
  let run socket port workers node_cache max_pending client_quota timeout
      stats_file stats_every exec_opts =
    let workers =
      match workers with
      | Some w -> max 0 w
      | None ->
          max 1
            (Domain.recommended_domain_count ()
            / max 1 exec_opts.Vp_exec.Cli.jobs)
    in
    let cfg =
      {
        Vp_serve.Server.socket_path = socket;
        tcp_port = port;
        max_pending;
        client_quota;
        default_timeout_s = timeout;
        max_frame = Vp_serve.Protocol.default_max_frame;
        stats_file;
        stats_every_s = stats_every;
        node_cap = (if node_cache <= 0 then None else Some node_cache);
      }
    in
    let on_ready () =
      Printf.eprintf "vliw_vp serve: listening on %s%s (%s)\n%!" socket
        (match port with
        | Some p -> Printf.sprintf " and 127.0.0.1:%d" p
        | None -> "")
        (if workers = 0 then "in-process"
         else Printf.sprintf "%d shard%s" workers
             (if workers = 1 then "" else "s"))
    in
    match
      if workers = 0 then
        (* reference path: one process, one shared graph *)
        Vp_serve.Server.run ~on_ready
          ~exec:(Vp_exec.Cli.context exec_opts)
          cfg
      else
        (* the execution contexts are built inside the forked shards; the
           supervisor itself never touches the simulator *)
        Vp_serve.Supervisor.run ~on_ready
          ~make_exec:(fun () -> Vp_exec.Cli.context exec_opts)
          ~workers cfg
    with
    | _final_stats -> `Ok ()
    | exception Failure m -> `Error (false, m)
    | exception Unix.Unix_error (e, fn, arg) ->
        `Error
          ( false,
            Printf.sprintf "%s: %s %s" (Unix.error_message e) fn arg )
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the resident simulation daemon: accept submit requests over a \
          Unix (and optionally TCP) socket, execute them on sharded resident \
          job graphs with in-flight dedup and a shared warm cache, stream \
          results back")
    Term.(
      ret
        (const run $ socket_t $ port_t $ workers_t $ node_cache_t
       $ max_pending_t $ quota_t $ timeout_t $ stats_file_t $ stats_every_t
       $ exec_opts_t))

let submit_cmd =
  let experiments_t =
    let doc =
      "Experiments to run: all, table2, table3, table4, fig8, comparison, \
       regions, regions:frontier, overlap, example, hyperblocks, hardware, \
       stability, recovery, ablate:NAME. Default: all."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let port_t =
    let doc = "Connect to 127.0.0.1:$(docv) instead of the Unix socket." in
    Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let timeout_t =
    let doc = "Per-request timeout in seconds (overrides the server default)." in
    Arg.(
      value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS" ~doc)
  in
  let stats_t =
    let doc = "Print the daemon's telemetry snapshot instead of submitting." in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let shutdown_t =
    let doc = "Ask the daemon to drain and exit instead of submitting." in
    Arg.(value & flag & info [ "shutdown" ] ~doc)
  in
  let run socket port experiments names width seed threshold csv timeout
      stats shutdown =
    let connect () =
      match port with
      | Some p -> Vp_serve.Client.connect_tcp ~host:"127.0.0.1" ~port:p
      | None -> Vp_serve.Client.connect socket
    in
    match connect () with
    | exception Unix.Unix_error (e, _, _) ->
        `Error
          ( false,
            Printf.sprintf "cannot connect to %s: %s"
              (match port with
              | Some p -> Printf.sprintf "127.0.0.1:%d" p
              | None -> socket)
              (Unix.error_message e) )
    | client -> (
        Fun.protect
          ~finally:(fun () -> Vp_serve.Client.close client)
          (fun () ->
            if stats then begin
              print_endline (Vp_serve.Jsonx.to_string (Vp_serve.Client.stats client));
              `Ok ()
            end
            else if shutdown then begin
              Vp_serve.Client.shutdown client;
              `Ok ()
            end
            else
              match
                Vp_serve.Client.submit_spec ~experiments ~benchmarks:names
                  ~width ~seed ~threshold ~csv ?timeout_s:timeout ()
              with
              | exception Invalid_argument m -> `Error (false, m)
              | spec -> (
                  let outcome = Vp_serve.Client.submit client spec in
                  List.iter
                    (fun (_artifact, data) -> print_string data)
                    outcome.Vp_serve.Client.results;
                  match outcome.error with
                  | None -> `Ok ()
                  | Some (code, message) ->
                      `Error
                        (false, Printf.sprintf "server error %s: %s" code message))))
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit experiments to a running daemon and print the streamed \
          results (byte-identical to the direct command)")
    Term.(
      ret
        (const run $ socket_t $ port_t $ experiments_t $ benchmarks_t
       $ width_t $ seed_t $ threshold_t $ csv_t $ timeout_t $ stats_t
       $ shutdown_t))

let main_cmd =
  let doc =
    "Reproduction of 'Value Prediction in VLIW Machines' (Nakra, Gupta, \
     Soffa, 1999)"
  in
  Cmd.group
    (Cmd.info "vliw_vp" ~version:"1.0.0" ~doc)
    [
      example_cmd;
      summary_cmd;
      profile_cmd;
      schedule_cmd;
      table_cmd "table2"
        ~doc:"Reproduce Table 2 (execution-time fractions)"
        (fun ~format s -> Vliw_vp.Experiments.render_table2 ~format s);
      table_cmd "table3"
        ~doc:"Reproduce Table 3 (schedule-length fractions)"
        (fun ~format s -> Vliw_vp.Experiments.render_table3 ~format s);
      table4_cmd;
      table_cmd "fig8"
        ~doc:"Reproduce Figure 8 (schedule-length change distribution)"
        (fun ~format s ->
          ignore format;
          Vliw_vp.Experiments.render_figure8 s);
      compare_cmd;
      regions_cmd;
      hyperblocks_cmd;
      frontier_cmd;
      ablate_cmd;
      hardware_cmd;
      overlap_cmd;
      stability_cmd;
      report_cmd;
      run_cmd;
      simulate_cmd;
      all_cmd;
      serve_cmd;
      submit_cmd;
    ]

(* Exit-code hygiene: simulator failures and orchestration failures exit
   non-zero with a one-line diagnostic on stderr rather than dumping a raw
   backtrace. Command-line errors — an unknown subcommand, a malformed
   flag — get the same treatment: cmdliner's error output is captured and
   only its diagnostic line reaches stderr (the multi-line usage dump is
   for $(b,--help)), and the exit code stays cmdliner's 124. The capture
   has no right margin, so a long diagnostic is not wrapped onto a second
   line that would be dropped. *)
let () =
  let fail fmt = Printf.kfprintf (fun _ -> exit 2) stderr ("vliw_vp: " ^^ fmt ^^ "\n") in
  let errbuf = Buffer.create 256 in
  let errfmt = Format.formatter_of_buffer errbuf in
  Format.pp_set_margin errfmt 100_000;
  match Cmd.eval ~catch:false ~err:errfmt main_cmd with
  | code ->
      Format.pp_print_flush errfmt ();
      let captured = Buffer.contents errbuf in
      (if code = Cmd.Exit.cli_error then
         match
           List.find_opt
             (fun l -> String.trim l <> "")
             (String.split_on_char '\n' captured)
         with
         | Some line -> prerr_endline (String.trim line)
         | None -> prerr_endline "vliw_vp: invalid command line"
       else if captured <> "" then prerr_string captured);
      exit code
  | exception Vp_engine.Dual_engine.Deadlock m ->
      fail "simulator deadlock: %s" m
  | exception Vp_exec.Context.Job_failed { key; label; message } ->
      fail "job %s failed (key %s): %s" label key message
  | exception Sys_error m -> fail "%s" m
