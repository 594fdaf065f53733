(* The spec-unit cache and the preparation memo must be invisible: every
   cached artifact — list schedule, vspec transform outcome, and the
   compiled kernel a speculated block's preparation holds — must be
   structurally equal to the uncached computation for arbitrary blocks,
   policies and profiled rates. Plus the threshold-normalization contract:
   sweep points whose thresholds admit the same loads share one physical
   entry, and the no-candidates message still reports each caller's own
   threshold. *)

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let checki = Alcotest.(check int)
let machine = Vp_machine.Descr.playdoh ~width:4
let live_in = Vp_engine.Reference.live_in

let model_of pick =
  let models = Vp_workload.Spec_model.all in
  List.nth models (pick mod List.length models)

let gen_block ~seed ~pick =
  fst
    (Vp_workload.Block_gen.generate (model_of pick)
       ~rng:(Vp_util.Rng.create seed)
       ~stream_base:0 ~label:"spec-unit")

(* Deterministic pseudo-profile: a spread of rates over the loads, with
   some unprofiled, so different thresholds admit different subsets. *)
let gen_rates ~rseed block =
  let rng = Vp_util.Rng.create rseed in
  Array.map
    (fun (o : Vp_ir.Operation.t) ->
      if Vp_ir.Operation.is_load o && Vp_util.Rng.bool rng then
        Some (float_of_int (Vp_util.Rng.int rng 100) /. 100.0)
      else None)
    (Vp_ir.Block.ops block)

let thresholds = [| 0.0; 0.4; 0.6; 0.75; 0.9 |]

(* --- cached = fresh, property-tested --- *)

let prop_cached_equals_fresh =
  QCheck.Test.make ~count:80
    ~name:"cached schedule/transform/compiled = fresh computation"
    QCheck.(quad small_int (int_bound 7) small_int (int_bound 9))
    (fun (seed, pick, rseed, knobs) ->
      let block = gen_block ~seed ~pick in
      let rates = gen_rates ~rseed block in
      let threshold = thresholds.(knobs mod Array.length thresholds) in
      let policy =
        {
          Vp_vspec.Policy.default with
          threshold;
          critical_path_only = knobs mod 2 = 0;
        }
      in
      let fresh_sched = Vp_sched.List_scheduler.schedule_block machine block in
      let cached_sched = Vliw_vp.Spec_unit.schedule machine block in
      let fresh_outcome =
        Vp_vspec.Transform.apply ~policy machine
          ~rate:(fun (o : Vp_ir.Operation.t) -> rates.(o.id))
          block
      in
      let cached_outcome =
        Vliw_vp.Spec_unit.transform ~policy machine ~rates block
      in
      (* Twice: the second call exercises the hit path. *)
      let cached_again =
        Vliw_vp.Spec_unit.transform ~policy machine ~rates block
      in
      fresh_sched = cached_sched
      && fresh_outcome = cached_outcome
      && cached_outcome = cached_again
      &&
      match (fresh_outcome, cached_outcome) with
      | Vp_vspec.Transform.Speculated fresh_sb, Vp_vspec.Transform.Speculated sb
        ->
          (* The kernel is part of the block's preparation, read against
             the streams of the block's own model. The fresh compile uses
             the fresh spec block to prove key independence. *)
          let workload =
            Vp_workload.Workload.generate ~seed:11 (model_of pick)
          in
          let config = { Vliw_vp.Config.default with seed = 11 } in
          let held = Vliw_vp.Pipeline.prep_cached config workload sb in
          (* Twice: the second call exercises the hit path. *)
          held == Vliw_vp.Pipeline.prep_cached config workload sb
          && held.prep_kernel
             = Vp_engine.Compiled.compile fresh_sb
                 ~reference:
                   (Vliw_vp.Pipeline.prep_spec config workload fresh_sb)
                     .prep_reference ~live_in
      | _ -> true)

(* --- threshold normalization: sharing and message rewriting --- *)

let test_threshold_sharing () =
  Vliw_vp.Spec_unit.clear ();
  let block = gen_block ~seed:3 ~pick:0 in
  let rates =
    Array.map
      (fun (o : Vp_ir.Operation.t) ->
        if Vp_ir.Operation.is_load o then Some 0.9 else None)
      (Vp_ir.Block.ops block)
  in
  let at threshold =
    Vliw_vp.Spec_unit.transform
      ~policy:{ Vp_vspec.Policy.default with threshold }
      machine ~rates block
  in
  (* 0.5 and 0.8 admit the same loads (all rates are 0.9): one entry. *)
  let a = at 0.5 in
  let misses_after_first = (Vliw_vp.Spec_unit.stats ()).misses in
  let b = at 0.8 in
  let stats = Vliw_vp.Spec_unit.stats () in
  checki "second threshold computes nothing" misses_after_first stats.misses;
  checkb "second threshold hits" true (stats.hits >= 1);
  (match (a, b) with
  | Vp_vspec.Transform.Speculated sa, Vp_vspec.Transform.Speculated sb ->
      checkb "same physical spec block" true (sa == sb)
  | _ -> Alcotest.fail "expected both thresholds to speculate");
  (* 0.95 admits nothing: different entry, and the message must carry the
     caller's threshold even when served from a shared normalized entry. *)
  (match at 0.95 with
  | Vp_vspec.Transform.Unchanged msg ->
      checks "threshold in message" "no load above the 0.95 profile threshold"
        msg
  | Vp_vspec.Transform.Speculated _ -> Alcotest.fail "expected Unchanged");
  match at 0.99 with
  | Vp_vspec.Transform.Unchanged msg ->
      checks "rewritten for second caller"
        "no load above the 0.99 profile threshold" msg
  | Vp_vspec.Transform.Speculated _ -> Alcotest.fail "expected Unchanged"

(* --- profile rates: cached = fresh, and a repeat is a memory hit --- *)

let test_profile_rates_caching () =
  Vliw_vp.Spec_unit.clear ();
  let workload =
    Vp_workload.Workload.generate ~seed:7 Vp_workload.Spec_model.compress
  in
  let kinds =
    [
      Vp_predict.Predictor.Stride;
      Vp_predict.Predictor.Fcm { order = 2; table_bits = 12 };
    ]
  in
  let fresh =
    Vp_profile.Value_profile.stream_rates workload ~stream:0 ~samples:300 ~kinds
  in
  let cold =
    Vliw_vp.Spec_unit.profile_rates workload ~stream:0 ~samples:300 ~kinds
  in
  checkb "cached = fresh" true (fresh = cold);
  let misses_cold = (Vliw_vp.Spec_unit.stats ()).misses in
  checkb "cold run misses" true (misses_cold >= 1);
  let warm_mem =
    Vliw_vp.Spec_unit.profile_rates workload ~stream:0 ~samples:300 ~kinds
  in
  checki "memory hit, no new miss" misses_cold
    (Vliw_vp.Spec_unit.stats ()).misses;
  checkb "memory-served = cold" true (cold = warm_mem);
  (* Different sample counts and kind lists are distinct artifacts. *)
  let other =
    Vliw_vp.Spec_unit.profile_rates workload ~stream:0 ~samples:150 ~kinds
  in
  checki "distinct key misses" (misses_cold + 1)
    (Vliw_vp.Spec_unit.stats ()).misses;
  checki "one rate per kind" (List.length kinds) (Array.length other)

(* --- preparation memo: every hit equals a fresh preparation --- *)

(* The integer field [name] of a telemetry JSON object. *)
let json_int json name =
  let key = Printf.sprintf "\"%s\": " name in
  let rec find i =
    if String.sub json i (String.length key) = key then i + String.length key
    else find (i + 1)
  in
  let at = find 0 in
  let stop = ref at in
  while json.[!stop] >= '0' && json.[!stop] <= '9' do
    incr stop
  done;
  int_of_string (String.sub json at (!stop - at))

let prep_counters () =
  let json = Vliw_vp.Pipeline.telemetry_json () in
  (json_int json "prep_memo_hits", json_int json "prep_memo_misses")

(* The CCE-width sweep over one model, at a seed no other test here runs:
   each speculated block is prepared at the first point and read back at
   the other three. Every (point, block) key the sweep looked up still
   holds the value its hits returned, and that value must equal
   [prep_spec] recomputed from the point's own config, workload and spec
   block. *)
let test_prep_hits_fresh () =
  let sweep =
    List.find
      (fun (a : Vliw_vp.Experiments.ablation) -> a.sweep_name = "ccewidth")
      Vliw_vp.Experiments.ablation_sweeps
  in
  let base = { Vliw_vp.Config.default with seed = 5 } in
  let hits0, misses0 = prep_counters () in
  let runs =
    List.map
      (fun (_, point) ->
        Vliw_vp.Pipeline.run ~config:(point base)
          Vp_workload.Spec_model.compress)
      sweep.sweep_settings
  in
  let hits1, misses1 = prep_counters () in
  let misses = misses1 - misses0 and hits = hits1 - hits0 in
  checkb "the sweep prepared some block" true (misses > 0);
  checki "three points share each preparation" (3 * misses) hits;
  let checked = ref 0 in
  List.iter
    (fun (p : Vliw_vp.Pipeline.t) ->
      Array.iter
        (fun (b : Vliw_vp.Pipeline.block_eval) ->
          match b.spec with
          | None -> ()
          | Some spec ->
              let held =
                Vliw_vp.Pipeline.prep_cached p.config p.workload spec.sb
              in
              checkb "held preparation is the evaluated one" true
                (held.prep_sb == spec.sb);
              let fresh =
                Vliw_vp.Pipeline.prep_spec p.config p.workload spec.sb
              in
              checkb "held preparation = fresh" true (held = fresh);
              checkb "held kernel = fresh compile" true
                (held.prep_kernel
                = Vp_engine.Compiled.compile spec.sb
                    ~reference:fresh.prep_reference ~live_in);
              incr checked)
        p.blocks)
    runs;
  checki "every lookup of the sweep checked" (hits + misses) !checked;
  checki "the checks were all hits" misses1 (snd (prep_counters ()))

(* The recovery table's five branch penalties over one model, at a seed
   no other test here runs: the static-recovery model holds no penalty,
   so each speculated block is prepared at the first penalty and read
   back at the other four. *)
let test_penalties_share_preparations () =
  Vliw_vp.Spec_unit.clear ();
  let config = { Vliw_vp.Config.default with seed = 23 } in
  let hits0, misses0 = prep_counters () in
  let g = Vp_exec.Graph.create Vp_exec.Context.sequential in
  let rows =
    Vp_exec.Graph.await g
      (Vliw_vp.Experiments.recovery_sensitivity g ~config
         ~penalties:[ 0; 1; 2; 4; 8 ] Vp_workload.Spec_model.li)
  in
  let hits1, misses1 = prep_counters () in
  let misses = misses1 - misses0 and hits = hits1 - hits0 in
  checki "one row per penalty" 5 (List.length rows);
  checkb "the sweep prepared some block" true (misses > 0);
  checki "four penalties share each preparation" (4 * misses) hits

(* --- residual blocks: one entry per physical block, every hit fresh --- *)

(* The profiled rate of every operation of block [index], as the
   pipeline reads it. *)
let block_rates (p : Vliw_vp.Pipeline.t) index block =
  Array.map
    (fun (op : Vp_ir.Operation.t) ->
      if Vp_ir.Operation.is_load op then
        Vp_profile.Value_profile.rate p.profile ~block:index ~op:op.id
      else None)
    (Vp_ir.Block.ops block)

(* A basic-block run and the [regions] suite over one model, at a seed no
   other test here runs; vortex has basic blocks whose transform the
   region config's larger prediction budget changes, so a transform key
   that dropped the policy would fail here. A superblock program keeps every block it does
   not merge, so its schedule is the base run's entry. Then every
   schedule and transform either run looked up is looked up again and
   compared with the scheduler and the transform recomputed from the
   key's inputs: the block, the run's machine description and policy,
   and the rates of the run's profile. *)
let test_residual_blocks_share () =
  let config = { Vliw_vp.Config.default with seed = 17 } in
  let model = Vp_workload.Spec_model.vortex in
  let params = Vp_region.Superblock.default_params in
  let base = Vliw_vp.Pipeline.run ~config model in
  (let g = Vp_exec.Graph.create Vp_exec.Context.sequential in
   ignore
     (Vp_exec.Graph.await g
        (Vliw_vp.Experiments.regions g ~config ~params [ model ])));
  let misses () = (Vliw_vp.Spec_unit.stats ()).misses in
  let descr = Vliw_vp.Config.machine config in
  let cfg = Vp_workload.Cfg.derive ~seed:config.seed base.workload in
  let sb_program, _ = Vliw_vp.Region_unit.superblock base.workload cfg params in
  let base_blocks = Vp_ir.Program.blocks base.program in
  let residual =
    List.filter
      (fun (wb : Vp_ir.Program.weighted_block) ->
        Array.exists
          (fun (b : Vp_ir.Program.weighted_block) -> b.block == wb.block)
          base_blocks)
      (Array.to_list (Vp_ir.Program.blocks sb_program))
  in
  checkb "the superblock program keeps base blocks" true (residual <> []);
  let before = misses () in
  List.iter
    (fun (wb : Vp_ir.Program.weighted_block) ->
      ignore (Vliw_vp.Spec_unit.schedule descr wb.block))
    residual;
  checki "residual blocks hit the base run's schedules" before (misses ());
  (* The region run at the config the region row evaluates: the per-block
     budget scaled by the trace length cap. A config other than the
     suite's would miss the transform or kernel memos here. *)
  let scale n = n * params.max_blocks in
  let region_config =
    {
      config with
      cce_retire_width = scale config.cce_retire_width;
      policy =
        {
          config.policy with
          max_predictions = scale config.policy.max_predictions;
          max_sync_bits = scale config.policy.max_sync_bits;
        };
    }
  in
  let region =
    Vliw_vp.Pipeline.run_program ~config:region_config base.workload
      sb_program
  in
  checki "the region config is the suite's" before (misses ());
  let checked = ref 0 in
  List.iter
    (fun (p : Vliw_vp.Pipeline.t) ->
      let descr = Vliw_vp.Config.machine p.config in
      let policy = p.config.policy in
      Array.iter
        (fun (b : Vliw_vp.Pipeline.block_eval) ->
          let block = (Vp_ir.Program.nth p.program b.index).block in
          let rates = block_rates p b.index block in
          checkb "held schedule = fresh schedule" true
            (Vliw_vp.Spec_unit.schedule descr block
            = Vp_sched.List_scheduler.schedule_block descr block);
          let held = Vliw_vp.Spec_unit.transform ~policy descr ~rates block in
          checkb "held transform = fresh transform" true
            (held
            = Vp_vspec.Transform.apply ~policy descr
                ~rate:(fun (o : Vp_ir.Operation.t) -> rates.(o.id))
                block);
          (match (held, b.spec) with
          | Vp_vspec.Transform.Speculated sb, Some spec ->
              checkb "held spec block is the evaluated one" true
                (sb == spec.sb)
          | Vp_vspec.Transform.Unchanged reason, None ->
              Alcotest.(check (option string))
                "held reason is the evaluated one" (Some reason) b.skip_reason
          | _ -> Alcotest.fail "held transform disagrees with the run");
          incr checked)
        p.blocks)
    [ base; region ];
  checki "every block of both runs checked"
    (Array.length base.blocks + Array.length region.blocks)
    !checked;
  checki "the checks were all hits" before (misses ())

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "spec_unit"
    [
      ( "equivalence",
        [ QCheck_alcotest.to_alcotest prop_cached_equals_fresh ] );
      ( "sharing",
        [
          tc "threshold normalization shares entries" test_threshold_sharing;
          tc "profile rates cached and store-backed" test_profile_rates_caching;
          tc "preparation hits equal fresh preparations" test_prep_hits_fresh;
          tc "branch penalties share preparations"
            test_penalties_share_preparations;
          tc "residual blocks share the base run's artifacts"
            test_residual_blocks_share;
        ] );
    ]
