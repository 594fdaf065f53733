type t = {
  width : int;
  policy : Vp_vspec.Policy.t;
  seed : int;
  max_enumerated_predictions : int;
  monte_carlo_draws : int;
  ccb_capacity : int option;
  cce_retire_width : int;
  branch_penalty : int;
  icache_bytes : int;
  icache_line_bytes : int;
  icache_ways : int;
  miss_penalty : int;
  trace_length : int;
  charge_cce_drain : bool;
  profile_predictors : Vp_predict.Predictor.kind list option;
}

let default =
  {
    width = 4;
    policy = Vp_vspec.Policy.default;
    seed = 42;
    max_enumerated_predictions = 6;
    monte_carlo_draws = 64;
    ccb_capacity = None;
    cce_retire_width = 1;
    branch_penalty = 2;
    icache_bytes = 16 * 1024;
    icache_line_bytes = 32;
    icache_ways = 2;
    miss_penalty = 8;
    trace_length = 20_000;
    charge_cce_drain = false;
    profile_predictors = None;
  }

let make ~width ~seed ~threshold =
  {
    default with
    width;
    seed;
    policy = { default.policy with Vp_vspec.Policy.threshold };
  }

let effective_cycles t (r : Vp_engine.Dual_engine.result) =
  if t.charge_cce_drain then r.cycles else r.vliw_cycles

let with_width width t = { t with width }

let with_ccb_capacity capacity t =
  match capacity with
  | None -> { t with ccb_capacity = None }
  | Some n ->
      let budget = min t.policy.max_sync_bits (n + 1) in
      {
        t with
        ccb_capacity = Some n;
        policy = { t.policy with Vp_vspec.Policy.max_sync_bits = budget };
      }

let machine t = Vp_machine.Descr.playdoh ~width:t.width

let icache t =
  Vp_cache.Icache.create ~line_bytes:t.icache_line_bytes ~ways:t.icache_ways
    ~size_bytes:t.icache_bytes ()
