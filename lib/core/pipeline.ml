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

let live_in r = (1009 * r) + 77

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
    ~live_in

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

(* Scenario batches default to the bit-parallel lane engine; the scalar
   scenario tree stays reachable for A/B and CI coverage through the
   [VP_NO_BITSET] escape hatch (any non-empty value other than "0"). Read
   once at module initialisation: a [lazy] forced by two domains at once
   raises [CamlinternalLazy.Undefined]. *)
let bitset_enabled =
  match Sys.getenv_opt "VP_NO_BITSET" with
  | Some v when v <> "" && v <> "0" -> false
  | _ -> true

(* One lane arena per worker domain, reused across batch jobs — the lane
   slabs are Bigarray-backed and sized to the largest block the domain has
   seen, so steady-state batches allocate only their result records. *)
let lanes_key = Domain.DLS.new_key Vp_engine.Compiled.Lanes.create

(* Whole-run memo counters (the tables live just above [run_program]). *)
let run_memo_hits = Atomic.make 0
let run_memo_misses = Atomic.make 0

let telemetry_json () =
  let s = Vp_engine.Compiled.bitset_stats () in
  let occupancy =
    if s.Vp_engine.Compiled.words = 0 then 0.0
    else
      float_of_int s.Vp_engine.Compiled.vectors
      /. float_of_int s.Vp_engine.Compiled.words
  in
  Printf.sprintf
    "{\"bitset_enabled\": %b, \"bitset_words\": %d, \"bitset_vectors\": %d, \
     \"vectors_per_word\": %.2f, \"scalar_fallbacks\": %d, \
     \"run_memo_hits\": %d, \"run_memo_misses\": %d}"
    bitset_enabled
    s.Vp_engine.Compiled.words s.Vp_engine.Compiled.vectors occupancy
    s.Vp_engine.Compiled.fallbacks (Atomic.get run_memo_hits)
    (Atomic.get run_memo_misses)

(* Simulate a block's whole scenario set: compile the block once (through
   the spec-unit cache, so sweep points sharing the transform also share
   the kernel), then evaluate the whole vector set bit-parallel —
   [Compiled.run_bitset] packs up to 63 vectors per machine word, so one
   pass over the compiled block replaces the per-scenario replays.
   Duplicate vectors — Monte-Carlo collisions, and the all-correct /
   all-incorrect vectors the best/worst columns need, which the enumerated
   scenario list already contains — just occupy extra lanes. Under
   [VP_NO_BITSET] the batch runs through [Compiled.run_batch]'s scalar
   scenario tree instead; both produce byte-identical results. *)
let simulate_batch config prep =
  let compiled =
    Spec_unit.compiled ?ccb_capacity:config.Config.ccb_capacity
      ~cce_retire_width:config.Config.cce_retire_width ~live_in prep.prep_sb
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
    if bitset_enabled then
      Vp_engine.Compiled.run_bitset compiled (Domain.DLS.get lanes_key)
        ~vectors
    else
      let arena = Vp_engine.Compiled.Arena.create () in
      Vp_engine.Compiled.run_batch compiled arena ~vectors
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

let batch_key config prep =
  (* Content address of one block's scenario batch: everything the results
     depend on, including the spec-unit artifact version — a version bump
     changes what the cached transform/schedule/kernel artifacts mean, so
     batch results derived from them must not survive it either.
     [Closures] for the same reason as the experiment layer's keys —
     models and graphs may embed closures, and the store is only valid
     within one binary anyway. *)
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( "scenario-batch",
            Spec_unit.version,
            prep.prep_sb,
            prep.prep_reference,
            prep.prep_vectors,
            config )
          [ Marshal.Closures ]))

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
   memoize them instead. Keyed by (model name, seed) with a physical-
   identity check on the model itself (models embed stream-generator
   closures, so structural comparison is unavailable); entries per key are
   capped so ephemeral model values cannot grow the table without bound. *)
type profile_entry = {
  pe_model : Vp_workload.Spec_model.t;
  pe_predictors : Vp_predict.Predictor.kind list option;
  pe_profile : Vp_profile.Value_profile.t;
}

let profile_cache : (string * int, profile_entry list) Hashtbl.t =
  Hashtbl.create 8

let profile_cache_mutex = Mutex.create ()
let profile_cache_cap = 4

let memoized_profile ?store (config : Config.t) model workload program =
  let key = (model.Vp_workload.Spec_model.name, config.seed) in
  let predictors = config.profile_predictors in
  let lookup () =
    List.find_map
      (fun e ->
        if e.pe_model == model && e.pe_predictors = predictors then
          Some e.pe_profile
        else None)
      (Option.value ~default:[] (Hashtbl.find_opt profile_cache key))
  in
  match Mutex.protect profile_cache_mutex lookup with
  | Some profile -> profile
  | None ->
      (* Computed outside the lock: racing domains derive identical
         profiles from identical inputs, so a duplicate insert is only a
         little wasted work, never a wrong answer. *)
      let profile =
        Vp_profile.Value_profile.profile ~program
          ?predictors:config.profile_predictors
          ~rates:(Spec_unit.profile_rates ?store workload)
          workload
      in
      Mutex.protect profile_cache_mutex (fun () ->
          match lookup () with
          | Some existing -> existing
          | None ->
              let entries =
                { pe_model = model; pe_predictors = predictors;
                  pe_profile = profile }
                :: Option.value ~default:[]
                     (Hashtbl.find_opt profile_cache key)
              in
              let entries =
                List.filteri (fun i _ -> i < profile_cache_cap) entries
              in
              Hashtbl.replace profile_cache key entries;
              profile)

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
   holder of one content share one physical value), with entries matched
   on the workload (physical), the config ({!Config.structural_equal}) and
   the profile argument (physical option): warm reruns — bench
   repetitions, the region experiments' shared base runs, frontier points
   sharing a width — return the finished evaluation outright. *)
module Run_tbl = Hashtbl.Make (struct
  type t = Vp_ir.Program.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type run_entry = {
  re_workload : Vp_workload.Workload.t;
  re_config : Config.t;
  re_profile : Vp_profile.Value_profile.t option;
  re_result : t;
}

let run_tbl : run_entry list ref Run_tbl.t = Run_tbl.create 32
let run_mutex = Mutex.create ()
let run_cap = 128
let run_entries_cap = 16

let profile_arg_equal a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> a == b
  | _ -> false

let run_program ?(config = Config.default)
    ?(exec = Vp_exec.Context.sequential) ?profile workload program =
  if not (Spec_unit.enabled ()) then
    run_program_fresh ~config ~exec ~profile workload program
  else
    let find () =
      match Run_tbl.find_opt run_tbl program with
      | None -> None
      | Some entries ->
          List.find_opt
            (fun e ->
              e.re_workload == workload
              && Config.structural_equal e.re_config config
              && profile_arg_equal e.re_profile profile)
            !entries
    in
    match Mutex.protect run_mutex find with
    | Some e ->
        Atomic.incr run_memo_hits;
        e.re_result
    | None ->
        (* Computed outside the lock: racing domains derive identical
           results from identical inputs, so a duplicate insert is only
           wasted work, never a wrong answer. *)
        let result = run_program_fresh ~config ~exec ~profile workload program in
        Atomic.incr run_memo_misses;
        Mutex.protect run_mutex (fun () ->
            if Run_tbl.length run_tbl >= run_cap then Run_tbl.reset run_tbl;
            let entries =
              match Run_tbl.find_opt run_tbl program with
              | Some entries -> entries
              | None ->
                  let entries = ref [] in
                  Run_tbl.add run_tbl program entries;
                  entries
            in
            entries :=
              {
                re_workload = workload;
                re_config = config;
                re_profile = profile;
                re_result = result;
              }
              :: (if List.length !entries >= run_entries_cap then
                    List.filteri (fun i _ -> i < run_entries_cap - 1) !entries
                  else !entries));
        result

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
