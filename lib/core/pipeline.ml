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

(* Outcome-independent preparation for one speculated block: its reference
   run (on the first values of fresh stream instances), the kernel compiled
   against it, its static-recovery model, its profiled rates and the
   outcome vectors to simulate. None of it depends on the CCE shape or the
   branch penalty: the kernel takes the one and the recovery model's cycle
   counts the other when they run. *)
type spec_prep = {
  prep_sb : Vp_vspec.Spec_block.t;
  prep_reference : Vp_engine.Reference.t;
  prep_kernel : Vp_engine.Compiled.t;
  prep_rates : float array;
  prep_vectors : (Vp_engine.Scenario.t * float) list;
  prep_recovery : Vp_baseline.Static_recovery.t;
}

let prep_spec config workload (sb : Vp_vspec.Spec_block.t) =
  let descr = Config.machine config in
  let reference = block_reference workload sb.original_block in
  let recovery = Vp_baseline.Static_recovery.build descr sb in
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
      let rng =
        Vp_util.Rng.split_named rng (Vp_ir.Block.label sb.original_block)
      in
      let w = 1.0 /. float_of_int config.monte_carlo_draws in
      List.init config.monte_carlo_draws (fun _ ->
          (Vp_engine.Scenario.sample rng ~rates, w))
    end
  in
  {
    prep_sb = sb;
    prep_reference = reference;
    prep_kernel =
      Vp_engine.Compiled.compile sb ~reference
        ~live_in:Vp_engine.Reference.live_in;
    prep_rates = rates;
    prep_vectors = outcome_vectors;
    prep_recovery = recovery;
  }

(* Preparation memo. [prep_spec] reads the spec block, the workload's
   streams and four config fields — the machine width, the enumeration
   cap, the draw count and the seed — and no other input, none of the CCE
   shape, the branch penalty, the accounting or the scenario results
   among them. Keyed physically on the spec block (a transform memo hit
   hands every sharer one physical block) and the workload, and by value
   on those fields: every CCE-width, branch-penalty and accounting point
   of a sweep, threshold points whose masks agree and repeated served
   sweeps share their neighbours' preparation, kernel included. *)
type prep_key = {
  pk_sb : Vp_vspec.Spec_block.t;
  pk_workload : Vp_workload.Workload.t;
  pk_width : int;
  pk_seed : int;
  pk_max_enumerated : int;
  pk_draws : int;
}

let prep_memo : (prep_key, spec_prep) Vp_util.Memo.t =
  Vp_util.Memo.create 8192
    ~hash:(fun k -> Hashtbl.hash k.pk_sb)
    ~equal:(fun a b ->
      a.pk_sb == b.pk_sb
      && a.pk_workload == b.pk_workload
      && a.pk_width = b.pk_width && a.pk_seed = b.pk_seed
      && a.pk_max_enumerated = b.pk_max_enumerated
      && a.pk_draws = b.pk_draws)

let prep_cached (config : Config.t) workload sb =
  Vp_util.Memo.find_or_add prep_memo
    {
      pk_sb = sb;
      pk_workload = workload;
      pk_width = config.width;
      pk_seed = config.seed;
      pk_max_enumerated = config.max_enumerated_predictions;
      pk_draws = config.monte_carlo_draws;
    }
    (fun () -> prep_spec config workload sb)

(* One lane arena per worker domain, reused across scenario batches and
   trace-sim replays — the lane slabs are Bigarray-backed and sized to the
   largest block the domain has seen, so steady-state batches allocate
   only their result records. *)
let lanes_key = Domain.DLS.new_key Vp_engine.Compiled.Lanes.create
let lanes () = Domain.DLS.get lanes_key

(* Occupancy of the scenario batches, for the telemetry surface: how many
   lane words they ran and how many vectors those carried. Trace-sim's
   one-vector replays are counted apart, as its [engine_replays].
   Atomics: pipelines run concurrently in graph jobs across domains. *)
let bitset_words = Atomic.make 0
let bitset_vectors = Atomic.make 0

let count_word n =
  Atomic.incr bitset_words;
  ignore (Atomic.fetch_and_add bitset_vectors n)

(* Simulate a block's whole scenario set on its prepared kernel, at the
   config's CCB capacity and CCE retire width, bit-parallel —
   [Compiled.run_bitset] packs up to 63 vectors per machine word, so one
   pass over the compiled block replaces the per-scenario replays.
   Duplicate vectors — Monte-Carlo collisions, and the all-correct /
   all-incorrect vectors the best/worst columns need, which the enumerated
   scenario list already contains — collapse to one lane and share its
   result. *)
let simulate_batch (config : Config.t) prep =
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
    Vp_engine.Compiled.run_bitset ?ccb_capacity:config.ccb_capacity
      ~cce_retire_width:config.cce_retire_width ~on_word:count_word
      prep.prep_kernel (lanes ()) ~vectors
  in
  let unique =
    let seen = Hashtbl.create 16 in
    Array.iter (fun v -> Hashtbl.replace seen v ()) draws;
    Hashtbl.length seen
  in
  (Array.to_list (Array.sub all 0 nvec), all.(nvec), all.(nvec + 1), unique)

(* Reattach batch results to the outcome-independent half, pricing the
   static-recovery scheme at the config's branch penalty. *)
let eval_of_prep (config : Config.t) prep (results, best, worst, unique) =
  let branch_penalty = config.branch_penalty in
  let scenarios =
    List.map2
      (fun (outcomes, probability) result ->
        {
          outcomes;
          probability;
          result;
          recovery_cycles =
            Vp_baseline.Static_recovery.cycles ~branch_penalty
              prep.prep_recovery ~outcomes;
          recovery_compensation =
            Vp_baseline.Static_recovery.compensation_cycles ~branch_penalty
              prep.prep_recovery ~outcomes;
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

let profile_fresh (config : Config.t) workload program =
  Vp_profile.Value_profile.profile ~program
    ?predictors:config.profile_predictors
    ~rates:(Spec_unit.profile_rates workload)
    workload

let memoized_profile (config : Config.t) model workload program =
  Vp_util.Memo.find_or_add profile_memo
    (model, config.seed, config.profile_predictors)
    (fun () -> profile_fresh config workload program)

let run_program_fresh ~(config : Config.t) ~profile workload program =
  let descr = Config.machine config in
  let profile =
    match profile with
    | Some profile -> profile
    | None -> profile_fresh config workload program
  in
  (* Every block in order: schedule and transform it, and run a
     speculated block's whole scenario set through its compiled kernel.
     Both artifacts go through the spec-unit cache, keyed on the physical
     block: sweep points that vary only the CCE shape, the scenario caps
     or the threshold reuse a neighbouring config's schedule and transform
     instead of recomputing them, and so do a region program's residual
     blocks, which are the base program's own. Through the preparation
     memo, points that vary only the CCE shape, the branch penalty or the
     accounting also share each speculated block's reference run, kernel,
     recovery model and outcome vectors. *)
  let blocks =
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
        let original_schedule = Spec_unit.schedule descr wb.block in
        let skip_reason, spec =
          match
            Spec_unit.transform ~policy:config.policy descr ~rates wb.block
          with
          | Vp_vspec.Transform.Unchanged reason -> (Some reason, None)
          | Vp_vspec.Transform.Speculated sb ->
              let prep = prep_cached config workload sb in
              ( None,
                Some (eval_of_prep config prep (simulate_batch config prep)) )
        in
        {
          index;
          count = wb.count;
          original_cycles = Vp_sched.Schedule.length original_schedule;
          original_instructions =
            Vp_sched.Schedule.num_instructions original_schedule;
          skip_reason;
          spec;
        })
      (Vp_ir.Program.blocks program)
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
   Monte-Carlo RNG splits from (config seed, block label), and every
   block is evaluated in order in the calling domain — results are
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

let run_program ?(config = Config.default) ?profile workload program =
  Vp_util.Memo.find_or_add run_memo
    {
      rk_program = program;
      rk_workload = workload;
      rk_config = config;
      rk_profile = profile;
    }
    (fun () -> run_program_fresh ~config ~profile workload program)

let telemetry_json () =
  let words = Atomic.get bitset_words
  and vectors = Atomic.get bitset_vectors in
  let runs = Vp_util.Memo.stats run_memo
  and preps = Vp_util.Memo.stats prep_memo in
  let occupancy =
    if words = 0 then 0.0 else float_of_int vectors /. float_of_int words
  in
  Printf.sprintf
    "{\"bitset_words\": %d, \"bitset_vectors\": %d, \
     \"vectors_per_word\": %.2f, \"prep_memo_hits\": %d, \
     \"prep_memo_misses\": %d, \"run_memo_hits\": %d, \
     \"run_memo_misses\": %d}"
    words vectors occupancy preps.hits preps.misses runs.hits runs.misses

let run ?(config = Config.default) model =
  let workload = Vp_workload.Workload.generate ~seed:config.seed model in
  let program = Vp_workload.Workload.program workload in
  let profile = memoized_profile config model workload program in
  run_program ~config ~profile workload program

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
