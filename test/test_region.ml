(* Tests for the region extension: control-flow graphs, superblock
   formation, and the region experiment plumbing. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let workload = Vp_workload.Workload.generate Vp_workload.Spec_model.li
let program = Vp_workload.Workload.program workload
let cfg = Vp_workload.Cfg.derive workload

(* --- Cfg --- *)

let test_cfg_shape () =
  checki "one node per block" (Vp_ir.Program.num_blocks program)
    (Vp_workload.Cfg.num_blocks cfg);
  for i = 0 to Vp_workload.Cfg.num_blocks cfg - 1 do
    let succs = Vp_workload.Cfg.successors cfg i in
    checkb "1 or 2 successors" true
      (List.length succs = 1 || List.length succs = 2);
    let total =
      List.fold_left (fun acc (e : Vp_workload.Cfg.edge) -> acc +. e.probability) 0.0 succs
    in
    checkb "probabilities sum to 1" true (abs_float (total -. 1.0) < 1e-9);
    List.iter
      (fun (e : Vp_workload.Cfg.edge) ->
        checkb "valid target" true
          (e.dst >= 0 && e.dst < Vp_workload.Cfg.num_blocks cfg);
        checkb "positive probability" true (e.probability > 0.0))
      succs
  done

let test_cfg_branchless_fall_through () =
  (* a block without a final branch has exactly one successor: i+1 *)
  let n = Vp_ir.Program.num_blocks program in
  for i = 0 to n - 1 do
    let block = (Vp_ir.Program.nth program i).block in
    let last = Vp_ir.Block.op block (Vp_ir.Block.size block - 1) in
    if not (Vp_ir.Operation.is_branch last) then
      match Vp_workload.Cfg.successors cfg i with
      | [ e ] ->
          checki "falls through" ((i + 1) mod n) e.dst;
          checkb "probability 1" true (e.probability = 1.0)
      | _ -> Alcotest.fail "branch-less block must have one successor"
  done

let test_cfg_bias_band () =
  for i = 0 to Vp_workload.Cfg.num_blocks cfg - 1 do
    match Vp_workload.Cfg.successors cfg i with
    | [ a; _ ] ->
        checkb "fall-through biased" true
          (a.probability >= 0.60 && a.probability <= 0.95)
    | _ -> ()
  done

let test_cfg_deterministic () =
  let cfg2 = Vp_workload.Cfg.derive workload in
  for i = 0 to Vp_workload.Cfg.num_blocks cfg - 1 do
    checkb "same edges" true
      (Vp_workload.Cfg.successors cfg i = Vp_workload.Cfg.successors cfg2 i)
  done;
  let cfg3 = Vp_workload.Cfg.derive ~seed:7 workload in
  checkb "different seed differs somewhere" true
    (List.exists
       (fun i ->
         Vp_workload.Cfg.successors cfg i <> Vp_workload.Cfg.successors cfg3 i)
       (List.init (Vp_workload.Cfg.num_blocks cfg) Fun.id))

let test_hottest_successor () =
  for i = 0 to Vp_workload.Cfg.num_blocks cfg - 1 do
    match Vp_workload.Cfg.hottest_successor cfg i with
    | Some e ->
        List.iter
          (fun (e' : Vp_workload.Cfg.edge) ->
            checkb "is the max" true (e.probability >= e'.probability))
          (Vp_workload.Cfg.successors cfg i)
    | None -> Alcotest.fail "every block has successors"
  done

(* --- Superblock --- *)

let params = Vp_region.Superblock.default_params
let traces = Vp_region.Superblock.select_traces cfg program params
let sb_program, formed_traces = Vp_region.Superblock.form workload cfg params

let test_traces_disjoint () =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (t : Vp_region.Superblock.trace) ->
      checkb "head leads" true (List.hd t.blocks = t.head);
      checkb "within length cap" true
        (List.length t.blocks <= params.max_blocks);
      List.iter
        (fun b ->
          checkb "block in one trace only" false (Hashtbl.mem seen b);
          Hashtbl.replace seen b ())
        t.blocks)
    traces

let test_traces_follow_cfg () =
  List.iter
    (fun (t : Vp_region.Superblock.trace) ->
      let rec walk = function
        | a :: (b :: _ as rest) ->
            let succs = Vp_workload.Cfg.successors cfg a in
            checkb "consecutive blocks are CFG successors" true
              (List.exists (fun (e : Vp_workload.Cfg.edge) -> e.dst = b) succs);
            walk rest
        | _ -> ()
      in
      walk t.blocks)
    traces

let test_formed_program_valid () =
  checkb "some multi-block traces formed" true
    (List.exists
       (fun (t : Vp_region.Superblock.trace) -> List.length t.blocks >= 2)
       formed_traces);
  Array.iter
    (fun (wb : Vp_ir.Program.weighted_block) ->
      (* valid blocks: graphs build, schedules work *)
      let s =
        Vp_sched.List_scheduler.schedule_block
          (Vp_machine.Descr.playdoh ~width:4)
          wb.block
      in
      checkb "schedule validates" true (Vp_sched.Schedule.validate s = Ok ()))
    (Vp_ir.Program.blocks sb_program)

let test_formed_counts_conserved_approximately () =
  let dynamic p =
    Array.fold_left
      (fun acc (wb : Vp_ir.Program.weighted_block) ->
        acc + (wb.count * Vp_ir.Block.size wb.block))
      0
      (Vp_ir.Program.blocks p)
  in
  (* dropping interior branches removes a little dynamic work; the totals
     must stay in the same ballpark *)
  let base = dynamic program and formed = dynamic sb_program in
  checkb "work conserved within 30%" true
    (float_of_int (abs (base - formed)) < 0.3 *. float_of_int base)

let test_superblock_streams_resolve () =
  Array.iter
    (fun (wb : Vp_ir.Program.weighted_block) ->
      List.iter
        (fun (op : Vp_ir.Operation.t) ->
          ignore (Vp_workload.Workload.shape workload (Option.get op.stream)))
        (Vp_ir.Block.loads wb.block))
    (Vp_ir.Program.blocks sb_program)

let test_superblock_interior_branches_removed () =
  Array.iter
    (fun (wb : Vp_ir.Program.weighted_block) ->
      let ops = Vp_ir.Block.ops wb.block in
      Array.iteri
        (fun i o ->
          if Vp_ir.Operation.is_branch o then
            checki "branch only at the end" (Array.length ops - 1) i)
        ops)
    (Vp_ir.Program.blocks sb_program)

let test_superblock_deterministic () =
  let p2, _ = Vp_region.Superblock.form workload cfg params in
  checki "same block count" (Vp_ir.Program.num_blocks sb_program)
    (Vp_ir.Program.num_blocks p2);
  checki "same op total"
    (Vp_ir.Program.total_operations sb_program)
    (Vp_ir.Program.total_operations p2)

(* --- Hyperblock --- *)

let hb_params = Vp_region.Hyperblock.default_params
let hb_program, hb_formed = Vp_region.Hyperblock.form workload cfg hb_params

let test_hyperblocks_formed () =
  checkb "some hyperblocks formed" true (hb_formed > 0);
  let guarded = ref 0 in
  Array.iter
    (fun (wb : Vp_ir.Program.weighted_block) ->
      Array.iter
        (fun (o : Vp_ir.Operation.t) -> if o.guard <> None then incr guarded)
        (Vp_ir.Block.ops wb.block))
    (Vp_ir.Program.blocks hb_program);
  checkb "guarded operations present" true (!guarded > 0)

let test_hyperblocks_schedule () =
  Array.iter
    (fun (wb : Vp_ir.Program.weighted_block) ->
      let s =
        Vp_sched.List_scheduler.schedule_block
          (Vp_machine.Descr.playdoh ~width:4)
          wb.block
      in
      checkb "schedules validate" true (Vp_sched.Schedule.validate s = Ok ()))
    (Vp_ir.Program.blocks hb_program)

let test_hyperblocks_private_registers () =
  (* absorbed (guarded) bodies never write a register the main path
     writes — the renaming the speculation machinery relies on *)
  Array.iter
    (fun (wb : Vp_ir.Program.weighted_block) ->
      let main_defs = Hashtbl.create 16 and guard_defs = Hashtbl.create 16 in
      Array.iter
        (fun (o : Vp_ir.Operation.t) ->
          match Vp_ir.Operation.writes o with
          | Some r ->
              Hashtbl.replace
                (if o.guard = None then main_defs else guard_defs)
                r ()
          | None -> ())
        (Vp_ir.Block.ops wb.block);
      Hashtbl.iter
        (fun r () ->
          checkb "no collision" false (Hashtbl.mem main_defs r))
        guard_defs)
    (Vp_ir.Program.blocks hb_program)

let test_hyperblock_equivalence () =
  (* dual-engine equivalence holds on speculated hyperblocks too *)
  let config =
    { Vliw_vp.Config.default with trace_length = 500; monte_carlo_draws = 8 }
  in
  let p = Vliw_vp.Pipeline.run_program ~config workload hb_program in
  let exercised = ref 0 in
  Array.iter
    (fun (b : Vliw_vp.Pipeline.block_eval) ->
      match b.spec with
      | Some spec when !exercised < 15 ->
          incr exercised;
          (match Vp_vspec.Spec_block.invariant spec.sb with
          | Ok () -> ()
          | Error e -> Alcotest.failf "block %d: %s" b.index e);
          let reference = Vliw_vp.Pipeline.reference_of_block p b.index in
          List.iter
            (fun sc ->
              let r =
                Vp_engine.Dual_engine.run spec.sb ~reference
                  ~live_in:Vp_engine.Reference.live_in
                  ~outcomes:sc.Vliw_vp.Pipeline.outcomes
              in
              checkb "state equivalence" true
                (r.final_regs = reference.final_regs
                && r.stores = reference.stores))
            spec.scenarios
      | _ -> ())
    p.blocks;
  checkb "exercised speculated hyperblocks" true (!exercised > 0)

let test_hyperblock_params () =
  (* a taken threshold of 1.0 converts nothing (derived CFG biases are
     below 0.40 on the taken side); a zero-size cap converts nothing *)
  let none_formed params =
    snd (Vp_region.Hyperblock.form workload cfg params)
  in
  checki "threshold filters" 0
    (none_formed { Vp_region.Hyperblock.min_taken = 1.0; max_cold_size = 24 });
  checki "size cap filters" 0
    (none_formed { Vp_region.Hyperblock.min_taken = 0.05; max_cold_size = 0 });
  checkb "defaults convert" true
    (none_formed Vp_region.Hyperblock.default_params > 0)

let run declare =
  let g = Vp_exec.Graph.create Vp_exec.Context.sequential in
  Vp_exec.Graph.await g (declare g)

let test_hyperblock_experiment () =
  let rows =
    run (fun g ->
        Vliw_vp.Experiments.hyperblocks g
          ~config:{ Vliw_vp.Config.default with trace_length = 500 }
          [ Vp_workload.Spec_model.li ])
  in
  checki "one row" 1 (List.length rows);
  let r = List.hd rows in
  checkb "hyperblocks formed" true (r.hyper_formed > 0);
  checkb "ratios sane" true (r.hyper_ratio > 0.5 && r.hyper_ratio <= 1.1);
  checkb "renders" true
    (String.length (Vliw_vp.Experiments.render_hyperblocks rows) > 0)

(* --- Pipeline on the formed program --- *)

let test_pipeline_runs_on_superblocks () =
  let config =
    { Vliw_vp.Config.default with trace_length = 1_000; monte_carlo_draws = 8 }
  in
  let p = Vliw_vp.Pipeline.run_program ~config workload sb_program in
  checki "one eval per formed block"
    (Vp_ir.Program.num_blocks sb_program)
    (Array.length p.blocks);
  (* every speculated superblock still satisfies the structural invariant *)
  Array.iter
    (fun (b : Vliw_vp.Pipeline.block_eval) ->
      match b.spec with
      | Some s -> (
          match Vp_vspec.Spec_block.invariant s.sb with
          | Ok () -> ()
          | Error e -> Alcotest.failf "block %d: %s" b.index e)
      | None -> ())
    p.blocks

let test_region_experiment () =
  let config =
    { Vliw_vp.Config.default with trace_length = 1_000; monte_carlo_draws = 8 }
  in
  let rows =
    run (fun g ->
        Vliw_vp.Experiments.regions g ~config [ Vp_workload.Spec_model.li ])
  in
  checki "one row" 1 (List.length rows);
  let r = List.hd rows in
  checkb "formed traces" true (r.formed_traces > 0);
  checkb "trace lengths in (1, cap]" true
    (r.mean_trace_blocks > 1.0
    && r.mean_trace_blocks <= float_of_int params.max_blocks);
  checkb "ratios sane" true
    (r.base_ratio > 0.0 && r.base_ratio <= 1.2 && r.region_ratio > 0.0
   && r.region_ratio <= 1.2);
  checkb "renders" true
    (String.length (Vliw_vp.Experiments.render_regions rows) > 0)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "vp_region"
    [
      ( "cfg",
        [
          tc "shape" test_cfg_shape;
          tc "branchless fall-through" test_cfg_branchless_fall_through;
          tc "bias band" test_cfg_bias_band;
          tc "deterministic" test_cfg_deterministic;
          tc "hottest successor" test_hottest_successor;
        ] );
      ( "superblock",
        [
          tc "traces disjoint" test_traces_disjoint;
          tc "traces follow the CFG" test_traces_follow_cfg;
          tc "formed program valid" test_formed_program_valid;
          tc "counts conserved" test_formed_counts_conserved_approximately;
          tc "streams resolve" test_superblock_streams_resolve;
          tc "interior branches removed" test_superblock_interior_branches_removed;
          tc "deterministic" test_superblock_deterministic;
        ] );
      ( "hyperblock",
        [
          tc "formation" test_hyperblocks_formed;
          tc "schedules" test_hyperblocks_schedule;
          tc "private registers" test_hyperblocks_private_registers;
          tc "equivalence" test_hyperblock_equivalence;
          tc "params filter" test_hyperblock_params;
          tc "experiment" test_hyperblock_experiment;
        ] );
      ( "experiment",
        [
          tc "pipeline on superblocks" test_pipeline_runs_on_superblocks;
          tc "region rows" test_region_experiment;
        ] );
    ]
