(* The cache-key schema. Every cache and graph key is [Vp_exec.Store.key]
   of plain data: the configuration, the speculation policy, the benchmark
   models and the machine descriptions. This suite pins the three
   properties a sound key needs from those inputs:

   - they marshal without [Closures], so the key is defined at all;
   - every field of [Config.t], [Policy.t] and [Spec_model.t] reaches both
     [=] and the key, so no input can change without changing its key;
   - an equal value built separately gets the same key, so the key reads
     structure, not physical sharing. *)

module Config = Vliw_vp.Config
module Policy = Vp_vspec.Policy
module Model = Vp_workload.Spec_model

let checkb = Alcotest.(check bool)
let key = Vp_exec.Store.key

let presets =
  ("example", Vp_machine.Descr.example_machine)
  :: List.map
       (fun width ->
         (Printf.sprintf "playdoh-%d" width, Vp_machine.Descr.playdoh ~width))
       Vp_machine.Descr.widths

(* --- plain data ------------------------------------------------------ *)

let plain name v =
  match Marshal.to_string v [] with
  | _ -> ()
  | exception Invalid_argument msg ->
      Alcotest.failf "%s does not marshal without closures (%s)" name msg

let test_plain_data () =
  plain "Config.default" Config.default;
  plain "Example.policy" Vliw_vp.Example.policy;
  List.iter (fun (m : Model.t) -> plain m.name m) Model.all;
  List.iter (fun (name, d) -> plain name d) presets

(* --- every field reaches = and the key ------------------------------- *)

(* The record fields where [v] differs from [base]. *)
let changed_fields base v =
  let b = Obj.repr base and v = Obj.repr v in
  List.filter
    (fun i -> Obj.field b i <> Obj.field v i)
    (List.init (Obj.size b) Fun.id)

(* Each perturbation must change exactly one field, and each field must be
   changed by exactly one perturbation: a field added to the record fails
   here until it gets a perturbation of its own. *)
let check_fields name base perturbations =
  let size = Obj.size (Obj.repr base) in
  let covered = Array.make size 0 in
  List.iter
    (fun perturb ->
      let v = perturb base in
      match changed_fields base v with
      | [ i ] ->
          covered.(i) <- covered.(i) + 1;
          checkb
            (Printf.sprintf "%s field %d changes =" name i)
            true (v <> base);
          checkb
            (Printf.sprintf "%s field %d changes the key" name i)
            true
            (key v <> key base)
      | fields ->
          Alcotest.failf "%s: a perturbation changed %d fields, want 1" name
            (List.length fields))
    perturbations;
  Array.iteri
    (fun i n ->
      if n <> 1 then
        Alcotest.failf "%s field %d: %d perturbations, want 1" name i n)
    covered

let test_config_fields () =
  check_fields "Config.t" Config.default
    [
      (fun c -> { c with Config.width = 8 });
      (fun c -> { c with policy = Vliw_vp.Example.policy });
      (fun c -> { c with seed = c.seed + 1 });
      (fun c -> { c with max_enumerated_predictions = 5 });
      (fun c -> { c with monte_carlo_draws = 32 });
      (fun c -> { c with ccb_capacity = Some 4 });
      (fun c -> { c with cce_retire_width = 2 });
      (fun c -> { c with branch_penalty = 3 });
      (fun c -> { c with icache_bytes = 8 * 1024 });
      (fun c -> { c with icache_line_bytes = 64 });
      (fun c -> { c with icache_ways = 4 });
      (fun c -> { c with miss_penalty = 10 });
      (fun c -> { c with trace_length = 1000 });
      (fun c -> { c with charge_cce_drain = true });
      (fun c ->
        { c with profile_predictors = Some [ Vp_predict.Predictor.Stride ] });
    ]

let test_policy_fields () =
  check_fields "Policy.t" Policy.default
    [
      (fun p -> { p with Policy.threshold = 0.5 });
      (fun p -> { p with max_predictions = 2 });
      (fun p -> { p with max_sync_bits = 16 });
      (fun p -> { p with min_dependents = 2 });
      (fun p -> { p with critical_path_only = false });
      (fun p -> { p with non_speculative = [ 9; 10 ] });
    ]

(* A band bound deep inside the mix must reach the key too. *)
let widen_bands (mix : Model.shape_weight list) =
  List.map
    (fun (sw : Model.shape_weight) ->
      match sw.dist with
      | Mostly_strided_band (lo, hi) ->
          { sw with dist = Mostly_strided_band (lo, hi +. 0.01) }
      | _ -> sw)
    mix

let test_model_fields () =
  List.iter
    (fun (base : Model.t) ->
      check_fields base.name base
        [
          (fun m -> { m with Model.name = m.name ^ "'" });
          (fun m -> { m with description = "" });
          (fun m -> { m with num_blocks = m.num_blocks + 1 });
          (fun m -> { m with block_size_mean = m.block_size_mean + 1 });
          (fun m -> { m with block_size_spread = m.block_size_spread + 1 });
          (fun m -> { m with mem_fraction = m.mem_fraction +. 0.01 });
          (fun m -> { m with store_fraction = m.store_fraction +. 0.01 });
          (fun m -> { m with float_fraction = m.float_fraction +. 0.01 });
          (fun m -> { m with mul_fraction = m.mul_fraction +. 0.01 });
          (fun m -> { m with branch_fraction = m.branch_fraction +. 0.01 });
          (fun m -> { m with dep_density = m.dep_density +. 0.01 });
          (fun m -> { m with locality = m.locality + 1 });
          (fun m -> { m with reuse_fraction = m.reuse_fraction +. 0.01 });
          (fun m -> { m with load_chain_bias = m.load_chain_bias +. 0.01 });
          (fun m -> { m with shape_mix = widen_bands m.shape_mix });
          (fun m ->
            {
              m with
              chain_mix =
                (match m.chain_mix with
                | None -> Some m.shape_mix
                | Some _ -> None);
            });
          (fun m -> { m with zipf_skew = m.zipf_skew +. 0.1 });
          (fun m -> { m with dynamic_executions = m.dynamic_executions + 1 });
        ])
    Model.all

(* --- equal values built apart share a key ---------------------------- *)

(* Fresh boxes: an equal float or string that shares no block with its
   source, whatever constants the compiler shared. *)
let fresh_float x = Float.of_string (Printf.sprintf "%h" x)
let fresh_string s = Bytes.to_string (Bytes.of_string s)

let rebuild_dist : Model.shape_dist -> Model.shape_dist = function
  | Constant -> Constant
  | Strided -> Strided
  | Mostly_strided_band (lo, hi) ->
      Mostly_strided_band (fresh_float lo, fresh_float hi)
  | Noisy_periodic_band (lo, hi) ->
      Noisy_periodic_band (fresh_float lo, fresh_float hi)
  | Pointer_chain_band (lo, hi) -> Pointer_chain_band (lo, hi)
  | Random -> Random
  | Fixed shape -> Fixed shape

let rebuild_mix =
  List.map (fun (sw : Model.shape_weight) ->
      { Model.weight = fresh_float sw.weight; dist = rebuild_dist sw.dist })

let rebuild_model (m : Model.t) =
  {
    Model.name = fresh_string m.name;
    description = fresh_string m.description;
    num_blocks = m.num_blocks;
    block_size_mean = m.block_size_mean;
    block_size_spread = m.block_size_spread;
    mem_fraction = fresh_float m.mem_fraction;
    store_fraction = fresh_float m.store_fraction;
    float_fraction = fresh_float m.float_fraction;
    mul_fraction = fresh_float m.mul_fraction;
    branch_fraction = fresh_float m.branch_fraction;
    dep_density = fresh_float m.dep_density;
    locality = m.locality;
    reuse_fraction = fresh_float m.reuse_fraction;
    load_chain_bias = fresh_float m.load_chain_bias;
    shape_mix = rebuild_mix m.shape_mix;
    chain_mix = Option.map rebuild_mix m.chain_mix;
    zipf_skew = fresh_float m.zipf_skew;
    dynamic_executions = m.dynamic_executions;
  }

let rebuild_policy (p : Policy.t) =
  {
    Policy.threshold = fresh_float p.threshold;
    max_predictions = p.max_predictions;
    max_sync_bits = p.max_sync_bits;
    min_dependents = p.min_dependents;
    critical_path_only = p.critical_path_only;
    non_speculative = List.map Fun.id p.non_speculative;
  }

let rebuild_config (c : Config.t) =
  {
    Config.width = c.width;
    policy = rebuild_policy c.policy;
    seed = c.seed;
    max_enumerated_predictions = c.max_enumerated_predictions;
    monte_carlo_draws = c.monte_carlo_draws;
    ccb_capacity = Option.map Fun.id c.ccb_capacity;
    cce_retire_width = c.cce_retire_width;
    branch_penalty = c.branch_penalty;
    icache_bytes = c.icache_bytes;
    icache_line_bytes = c.icache_line_bytes;
    icache_ways = c.icache_ways;
    miss_penalty = c.miss_penalty;
    trace_length = c.trace_length;
    charge_cce_drain = c.charge_cce_drain;
    profile_predictors = Option.map (List.map Fun.id) c.profile_predictors;
  }

let same_key name v copy =
  checkb (name ^ ": rebuilt copy is =") true (copy = v);
  checkb (name ^ ": rebuilt copy is a new value") true (copy != v);
  checkb (name ^ ": rebuilt copy keeps the key") true (key copy = key v)

let test_rebuilt_keys () =
  same_key "Config.default" Config.default (rebuild_config Config.default);
  same_key "Example.policy" Vliw_vp.Example.policy
    (rebuild_policy Vliw_vp.Example.policy);
  List.iter
    (fun (m : Model.t) -> same_key m.name m (rebuild_model m))
    Model.all;
  (* A key over several inputs, as the experiment layer builds them. *)
  same_key "(kind, models, config)"
    ("run_all", Model.all, Config.default)
    ( fresh_string "run_all",
      List.map rebuild_model Model.all,
      rebuild_config Config.default );
  (* [playdoh] builds a new description on every call. *)
  List.iter
    (fun width ->
      same_key
        (Printf.sprintf "playdoh-%d" width)
        (Vp_machine.Descr.playdoh ~width)
        (Vp_machine.Descr.playdoh ~width))
    Vp_machine.Descr.widths

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "keys"
    [
      ( "schema",
        [
          tc "inputs marshal without closures" test_plain_data;
          tc "every Config.t field reaches the key" test_config_fields;
          tc "every Policy.t field reaches the key" test_policy_fields;
          tc "every Spec_model.t field reaches the key" test_model_fields;
          tc "equal values built apart share a key" test_rebuilt_keys;
        ] );
    ]
