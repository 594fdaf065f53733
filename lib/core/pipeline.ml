type scenario_eval = {
  outcomes : Vp_engine.Scenario.t;
  probability : float;
  result : Vp_engine.Dual_engine.result;
  recovery_cycles : int;
  recovery_compensation : int;
}

type spec_eval = {
  sb : Vp_vspec.Spec_block.t;
  rates : float array;
  scenarios : scenario_eval list;
  draws : int;
  unique_scenarios : int;
  best : Vp_engine.Dual_engine.result;
  worst : Vp_engine.Dual_engine.result;
  p_all_correct : float;
  p_all_incorrect : float;
  recovery : Vp_baseline.Static_recovery.t;
}

type block_eval = {
  index : int;
  count : int;
  original_cycles : int;
  original_instructions : int;
  skip_reason : string option;
  spec : spec_eval option;
}

type t = {
  config : Config.t;
  model : Vp_workload.Spec_model.t;
  workload : Vp_workload.Workload.t;
  program : Vp_ir.Program.t;
      (* the program the blocks were evaluated against — the workload's own
         for [run], a formed region program for [run_program] *)
  profile : Vp_profile.Value_profile.t;
  blocks : block_eval array;
}

let block_reference workload (block : Vp_ir.Block.t) =
  let values = Hashtbl.create 8 in
  List.iter
    (fun (op : Vp_ir.Operation.t) ->
      match op.stream with
      | Some s ->
          Hashtbl.replace values op.id
            (Vp_workload.Value_stream.next (Vp_workload.Workload.stream workload s))
      | None -> ())
    (Vp_ir.Block.loads block);
  Vp_engine.Reference.run block
    ~load_values:(fun i -> Hashtbl.find values i)
    ~live_in:Vp_engine.Reference.live_in

(* Outcome-independent preparation for one speculated block. Built
   sequentially, in block order: the reference draws each load's dynamic
   value from the workload's shared value streams, so the draw order must
   stay exactly the order the old single-pass evaluator used. *)
type spec_prep = {
  prep_sb : Vp_vspec.Spec_block.t;
  prep_reference : Vp_engine.Reference.t;
  prep_rates : float array;
  prep_vectors : (Vp_engine.Scenario.t * float) list;
  prep_recovery : Vp_baseline.Static_recovery.t;
}

let prep_spec config workload (wb : Vp_ir.Program.weighted_block) sb =
  let descr = Config.machine config in
  let reference = block_reference workload wb.block in
  let recovery =
    Vp_baseline.Static_recovery.build ~branch_penalty:config.branch_penalty
      descr sb
  in
  let rates =
    Array.map (fun p -> p.Vp_vspec.Spec_block.rate) sb.predicted
  in
  let n = Array.length rates in
  let outcome_vectors =
    if n <= config.Config.max_enumerated_predictions then
      List.map
        (fun o -> (o, Vp_engine.Scenario.probability ~rates o))
        (Vp_engine.Scenario.enumerate n)
    else begin
      let rng = Vp_util.Rng.create config.seed in
      let rng = Vp_util.Rng.split_named rng (Vp_ir.Block.label wb.block) in
      let w = 1.0 /. float_of_int config.monte_carlo_draws in
      List.init config.monte_carlo_draws (fun _ ->
          (Vp_engine.Scenario.sample rng ~rates, w))
    end
  in
  {
    prep_sb = sb;
    prep_reference = reference;
    prep_rates = rates;
    prep_vectors = outcome_vectors;
    prep_recovery = recovery;
  }

(* One lane arena per worker domain, reused across batch jobs and
   trace-sim replays — the lane slabs are Bigarray-backed and sized to the
   largest block the domain has seen, so steady-state batches allocate
   only their result records. *)
let lanes_key = Domain.DLS.new_key Vp_engine.Compiled.Lanes.create
let lanes () = Domain.DLS.get lanes_key

(* Simulate a block's whole scenario set: compile the block once (through
   the spec-unit cache, so sweep points sharing the transform also share
   the kernel), then evaluate the whole vector set bit-parallel —
   [Compiled.run_bitset] packs up to 63 vectors per machine word, so one
   pass over the compiled block replaces the per-scenario replays.
   Duplicate vectors — Monte-Carlo collisions, and the all-correct /
   all-incorrect vectors the best/worst columns need, which the enumerated
   scenario list already contains — collapse to one lane and share its
   result. *)
let simulate_batch config prep =
  let compiled =
    Spec_unit.compiled ?ccb_capacity:config.Config.ccb_capacity
      ~cce_retire_width:config.Config.cce_retire_width prep.prep_sb
      ~reference:prep.prep_reference
  in
  let n = Array.length prep.prep_rates in
  let draws = Array.of_list (List.map fst prep.prep_vectors) in
  let nvec = Array.length draws in
  let vectors =
    Array.append draws
      [|
        Vp_engine.Scenario.all_correct n; Vp_engine.Scenario.all_incorrect n;
      |]
  in
  let all =
    Vp_engine.Compiled.run_bitset compiled (lanes ()) ~vectors
  in
  let unique =
    let seen = Hashtbl.create 16 in
    Array.iter (fun v -> Hashtbl.replace seen v ()) draws;
    Hashtbl.length seen
  in
  (Array.to_list (Array.sub all 0 nvec), all.(nvec), all.(nvec + 1), unique)

(* Reattach batch results to the outcome-independent half. *)
let eval_of_prep prep (results, best, worst, unique) =
  let scenarios =
    List.map2
      (fun (outcomes, probability) result ->
        {
          outcomes;
          probability;
          result;
          recovery_cycles =
            Vp_baseline.Static_recovery.cycles prep.prep_recovery ~outcomes;
          recovery_compensation =
            Vp_baseline.Static_recovery.compensation_cycles prep.prep_recovery
              ~outcomes;
        })
      prep.prep_vectors results
  in
  let rates = prep.prep_rates in
  let n = Array.length rates in
  {
    sb = prep.prep_sb;
    rates;
    scenarios;
    draws = List.length prep.prep_vectors;
    unique_scenarios = unique;
    best;
    worst;
    p_all_correct =
      Vp_engine.Scenario.probability ~rates (Vp_engine.Scenario.all_correct n);
    p_all_incorrect =
      Vp_engine.Scenario.probability ~rates
        (Vp_engine.Scenario.all_incorrect n);
    recovery = prep.prep_recovery;
  }

(* Content address of one block's scenario batch: everything the results
   depend on. *)
let batch_key config prep =
  Vp_exec.Store.key
    ( "scenario-batch",
      prep.prep_sb,
      prep.prep_reference,
      prep.prep_vectors,
      config )

(* The content-addressed key exists to index the on-disk store; digesting a
   whole marshalled spec block per job is pure overhead when the context has
   no store (the batch job never touches its key-seeded RNG). Small-sample
   configs — the bench harness's reduced Monte-Carlo settings — would
   otherwise pay more for the digest than the batch itself costs. *)
let job_key exec config index prep =
  match exec.Vp_exec.Context.store with
  | Some _ -> batch_key config prep
  | None -> Printf.sprintf "scenario-batch-uncached:%d" index

(* The value profile is a pure function of (model, seed, predictors):
   [Workload.stream] hands out fresh replayable instances seeded from
   (workload seed, stream id), so profiling neither consumes shared stream
   state nor observes the machine shape, the speculation policy or any
   other [Config] knob. Sweeps that vary those knobs — every [ablate]
   sweep, Table 4's two widths — would recompute byte-identical profiles;
   memoize them instead. Keyed physically on the model (a model is plain
   data, but every caller holds the stock model values, and [==] is
   cheaper than comparing two models field by field) and structurally on
   the seed and predictors, hashed on (model name, seed). *)
let profile_memo :
    ( Vp_workload.Spec_model.t * int * Vp_predict.Predictor.kind list option,
      Vp_profile.Value_profile.t )
    Vp_util.Memo.t =
  Vp_util.Memo.create 256
    ~hash:(fun (model, seed, _) ->
      Hashtbl.hash (model.Vp_workload.Spec_model.name, seed))
    ~equal:(fun (m, seed, predictors) (m', seed', predictors') ->
      m == m' && seed = seed' && predictors = predictors')

let memoized_profile ?store (config : Config.t) model workload program =
  Vp_util.Memo.find_or_add profile_memo
    (model, config.seed, config.profile_predictors)
    (fun () ->
      Vp_profile.Value_profile.profile ~program
        ?predictors:config.profile_predictors
        ~rates:(Spec_unit.profile_rates ?store workload)
        workload)

let run_program_fresh ~(config : Config.t) ~exec ~profile workload program =
  let descr = Config.machine config in
  let profile =
    match profile with
    | Some profile -> profile
    | None ->
        Vp_profile.Value_profile.profile ~program
          ?predictors:config.profile_predictors
          ~rates:
            (Spec_unit.profile_rates ?store:exec.Vp_exec.Context.store
               workload)
          workload
  in
  (* Region-formed programs carry a content digest; naming each block by
     (digest, index) keys its spec-unit artifacts in a few dozen bytes
     instead of its marshalled IR. *)
  let region_digest = Region_unit.digest_of program in
  (* Pass 1 (sequential): schedule, transform and prepare every block in
     order — value-stream draws and profiling stay deterministic. Both
     artifacts go through the spec-unit cache: sweep points that vary only
     the CCE shape, the scenario caps or the threshold reuse a
     neighbouring config's schedule and transform instead of recomputing
     them (and, when the run has a store, reuse them across runs too). *)
  let store = exec.Vp_exec.Context.store in
  let pre =
    Array.mapi
      (fun index (wb : Vp_ir.Program.weighted_block) ->
        let rates =
          Array.map
            (fun (op : Vp_ir.Operation.t) ->
              if Vp_ir.Operation.is_load op then
                Vp_profile.Value_profile.rate profile ~block:index ~op:op.id
              else None)
            (Vp_ir.Block.ops wb.block)
        in
        let ident = Option.map (fun d -> (d, index)) region_digest in
        let original_schedule = Spec_unit.schedule ?store ?ident descr wb.block in
        let original_cycles = Vp_sched.Schedule.length original_schedule in
        let original_instructions =
          Vp_sched.Schedule.num_instructions original_schedule
        in
        match
          Spec_unit.transform ?store ?ident ~policy:config.policy descr ~rates
            wb.block
        with
        | Vp_vspec.Transform.Unchanged reason ->
            ( index,
              wb,
              original_cycles,
              original_instructions,
              Some reason,
              None )
        | Vp_vspec.Transform.Speculated sb ->
            ( index,
              wb,
              original_cycles,
              original_instructions,
              None,
              Some (prep_spec config workload wb sb) ))
      (Vp_ir.Program.blocks program)
  in
  (* Pass 2: one job per speculated block — its whole scenario set runs
     through the compiled kernel on one worker. Results return in
     submission order whatever the worker count, so parallel runs are
     bit-identical to sequential ones. *)
  let jobs =
    Array.to_list pre
    |> List.filter_map (fun (index, _, _, _, _, prep) ->
           Option.map
             (fun prep ->
               Vp_exec.Job.make
                 ~label:
                   (Printf.sprintf "scenarios:%s"
                      (Vp_ir.Block.label prep.prep_sb.original_block))
                 ~key:(job_key exec config index prep)
                 (fun _ctx -> simulate_batch config prep))
             prep)
  in
  let batch_results = ref (Vp_exec.Context.map_exn exec jobs) in
  let next_batch () =
    match !batch_results with
    | [] -> assert false
    | r :: rest ->
        batch_results := rest;
        r
  in
  (* Pass 3 (sequential): reattach and assemble. *)
  let blocks =
    Array.map
      (fun (index, (wb : Vp_ir.Program.weighted_block), original_cycles,
            original_instructions, skip_reason, prep) ->
        {
          index;
          count = wb.count;
          original_cycles;
          original_instructions;
          skip_reason;
          spec = Option.map (fun p -> eval_of_prep p (next_batch ())) prep;
        })
      pre
  in
  {
    config;
    model = Vp_workload.Workload.model workload;
    workload;
    program;
    profile;
    blocks;
  }

(* Whole-run memo. [run_program] is pure in (workload, program, config,
   profile): [block_reference] draws the first values of fresh replayable
   stream instances ([Workload.stream] never consumes shared state), the
   Monte-Carlo RNG splits from (config seed, block label), and the exec
   context only affects caching and parallelism — results are
   bit-identical across worker counts by construction. Keyed physically on
   the program (the workload memo and the region-formation memo make every
   holder of one content share one physical value) and matched on the
   workload (physical), the config ([=]) and the profile argument
   (physical option): warm reruns — bench repetitions, the region
   experiments' shared base runs, frontier points sharing a width —
   return the finished evaluation outright. *)
type run_key = {
  rk_program : Vp_ir.Program.t;
  rk_workload : Vp_workload.Workload.t;
  rk_config : Config.t;
  rk_profile : Vp_profile.Value_profile.t option;
}

let run_memo : (run_key, t) Vp_util.Memo.t =
  Vp_util.Memo.create 2048
    ~hash:(fun k -> Hashtbl.hash k.rk_program)
    ~equal:(fun a b ->
      a.rk_program == b.rk_program
      && a.rk_workload == b.rk_workload
      && a.rk_config = b.rk_config
      && Option.equal ( == ) a.rk_profile b.rk_profile)

let run_program ?(config = Config.default)
    ?(exec = Vp_exec.Context.sequential) ?profile workload program =
  Vp_util.Memo.find_or_add run_memo
    {
      rk_program = program;
      rk_workload = workload;
      rk_config = config;
      rk_profile = profile;
    }
    (fun () -> run_program_fresh ~config ~exec ~profile workload program)

let telemetry_json () =
  let s = Vp_engine.Compiled.bitset_stats () in
  let runs = Vp_util.Memo.stats run_memo in
  let occupancy =
    if s.Vp_engine.Compiled.words = 0 then 0.0
    else
      float_of_int s.Vp_engine.Compiled.vectors
      /. float_of_int s.Vp_engine.Compiled.words
  in
  Printf.sprintf
    "{\"bitset_words\": %d, \"bitset_vectors\": %d, \
     \"vectors_per_word\": %.2f, \"run_memo_hits\": %d, \
     \"run_memo_misses\": %d}"
    s.Vp_engine.Compiled.words s.Vp_engine.Compiled.vectors occupancy
    runs.hits runs.misses

let run ?(config = Config.default) ?exec model =
  let workload = Vp_workload.Workload.generate ~seed:config.seed model in
  let program = Vp_workload.Workload.program workload in
  let store =
    Option.bind exec (fun e -> e.Vp_exec.Context.store)
  in
  let profile = memoized_profile ?store config model workload program in
  run_program ~config ?exec ~profile workload program

let reference_of_block t index =
  let wb = Vp_ir.Program.nth t.program index in
  block_reference t.workload wb.block

let effective config r = Config.effective_cycles config r

let expected f spec =
  List.fold_left
    (fun acc s -> acc +. (s.probability *. f s))
    0.0 spec.scenarios

let expected_cycles config spec =
  expected (fun s -> float_of_int (effective config s.result)) spec

let expected_stall_cycles_spec spec =
  expected
    (fun s -> float_of_int s.result.Vp_engine.Dual_engine.stall_cycles)
    spec

let stats t =
  let config = t.config in
  Array.map
    (fun b ->
      {
        Vp_metrics.Summary.count = b.count;
        original_cycles = b.original_cycles;
        speculated =
          Option.map
            (fun spec ->
              {
                Vp_metrics.Summary.predictions = Array.length spec.rates;
                p_all_correct = spec.p_all_correct;
                p_all_incorrect = spec.p_all_incorrect;
                best_cycles = effective config spec.best;
                worst_cycles = effective config spec.worst;
                expected_cycles = expected_cycles config spec;
                expected_stall_cycles = expected_stall_cycles_spec spec;
              })
            b.spec;
      })
    t.blocks

let expected_recovery_cycles b =
  match b.spec with
  | None -> float_of_int b.original_cycles
  | Some spec -> expected (fun s -> float_of_int s.recovery_cycles) spec

let expected_recovery_compensation b =
  match b.spec with
  | None -> 0.0
  | Some spec -> expected (fun s -> float_of_int s.recovery_compensation) spec

let expected_stall_cycles b =
  match b.spec with
  | None -> 0.0
  | Some spec -> expected_stall_cycles_spec spec
