(* The spec-unit cache must be invisible: every cached artifact —
   list schedule, vspec transform outcome, compiled kernel — must be
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

let gen_block ~seed ~pick =
  let models = Vp_workload.Spec_model.all in
  let model = List.nth models (pick mod List.length models) in
  fst
    (Vp_workload.Block_gen.generate model
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

let reference_of (sb : Vp_vspec.Spec_block.t) =
  Vp_engine.Reference.run sb.original_block
    ~load_values:(fun id -> 1000 + (13 * id))
    ~live_in

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
          let cce_retire_width = 1 + (knobs mod 3) in
          (* The fresh compile uses the fresh spec block to prove key
             independence. *)
          Vliw_vp.Spec_unit.compiled ~cce_retire_width sb
            ~reference:(reference_of sb)
          = Vp_engine.Compiled.compile ~cce_retire_width fresh_sb
              ~reference:(reference_of fresh_sb) ~live_in
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

(* --- store backing round-trips across a memory clear --- *)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "vp_spec_unit_test_%d_%d" (Unix.getpid ()) !n)

let test_store_backing () =
  Vliw_vp.Spec_unit.clear ();
  let store = Vp_exec.Store.create ~dir:(fresh_dir ()) () in
  let block = gen_block ~seed:11 ~pick:2 in
  let cold = Vliw_vp.Spec_unit.schedule ~store machine block in
  let misses_cold = (Vliw_vp.Spec_unit.stats ()).misses in
  (* A fresh process is simulated by dropping the in-memory tables: the
     second lookup must be served by the store, not recomputed. *)
  Vliw_vp.Spec_unit.clear ();
  let warm = Vliw_vp.Spec_unit.schedule ~store machine block in
  let stats = Vliw_vp.Spec_unit.stats () in
  checki "store hit, not recompute" 0 stats.misses;
  checki "one hit" 1 stats.hits;
  checkb "cold = warm" true (cold = warm);
  ignore misses_cold

(* --- profile rates: cached = fresh, and the store serves rehydration --- *)

let test_profile_rates_caching () =
  Vliw_vp.Spec_unit.clear ();
  let store = Vp_exec.Store.create ~dir:(fresh_dir ()) () in
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
    Vliw_vp.Spec_unit.profile_rates ~store workload ~stream:0 ~samples:300
      ~kinds
  in
  checkb "cached = fresh" true (fresh = cold);
  let misses_cold = (Vliw_vp.Spec_unit.stats ()).misses in
  checkb "cold run misses" true (misses_cold >= 1);
  let warm_mem =
    Vliw_vp.Spec_unit.profile_rates ~store workload ~stream:0 ~samples:300
      ~kinds
  in
  checki "memory hit, no new miss" misses_cold
    (Vliw_vp.Spec_unit.stats ()).misses;
  checkb "memory-served = cold" true (cold = warm_mem);
  (* A fresh process is simulated by dropping the in-memory tables: the
     next lookup must come back from the store, not recompute. *)
  Vliw_vp.Spec_unit.clear ();
  let warm_store =
    Vliw_vp.Spec_unit.profile_rates ~store workload ~stream:0 ~samples:300
      ~kinds
  in
  let stats = Vliw_vp.Spec_unit.stats () in
  checki "store hit, not recompute" 0 stats.misses;
  checkb "store-served = cold" true (cold = warm_store);
  (* Different sample counts and kind lists are distinct artifacts. *)
  let other =
    Vliw_vp.Spec_unit.profile_rates ~store workload ~stream:0 ~samples:150
      ~kinds
  in
  checki "distinct key misses" 1 (Vliw_vp.Spec_unit.stats ()).misses;
  checki "one rate per kind" (List.length kinds) (Array.length other)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "spec_unit"
    [
      ( "equivalence",
        [ QCheck_alcotest.to_alcotest prop_cached_equals_fresh ] );
      ( "sharing",
        [
          tc "threshold normalization shares entries" test_threshold_sharing;
          tc "store backing survives a memory clear" test_store_backing;
          tc "profile rates cached and store-backed" test_profile_rates_caching;
        ] );
    ]
