(* Trace simulation vs the per-execution reference loop.

   The phased simulator (pre-drawn schedule, slot-batched predictor
   kernels, mask-memo replay) must be byte-identical to [Trace_sim_ref],
   a scalar loop over public APIs (fresh value streams, one
   [predict_and_train] per load, [Dual_engine.run] per execution), for
   every model, seed, and table configuration — results AND the final
   VP-table state (evictions, utilization). *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let fast_config =
  { Vliw_vp.Config.default with trace_length = 2_000; monte_carlo_draws = 16 }

let pp_result ppf (r : Vliw_vp.Trace_sim.result) =
  Format.fprintf ppf
    "{executions=%d; cycles=%d; original=%d; speedup=%.9f; predictions=%d; \
     mispredictions=%d; accuracy=%.9f; profile=%.9f}"
    r.executions r.cycles r.original_cycles r.speedup r.predictions
    r.mispredictions r.accuracy r.profile_speedup

let result = Alcotest.testable pp_result ( = )

(* Pipelines are memoized per (model, seed): the QCheck property draws
   from a small grid so the pipeline cost is paid once per point. *)
let pipelines : (string * int, Vliw_vp.Pipeline.t) Hashtbl.t =
  Hashtbl.create 8

let pipeline_of (model : Vp_workload.Spec_model.t) seed =
  let key = (model.Vp_workload.Spec_model.name, seed) in
  match Hashtbl.find_opt pipelines key with
  | Some p -> p
  | None ->
      let p =
        Vliw_vp.Pipeline.run ~config:{ fast_config with seed } model
      in
      Hashtbl.add pipelines key p;
      p

let models = [| Vp_workload.Spec_model.compress; Vp_workload.Spec_model.li |]
let seeds = [| 42; 7 |]
let entry_sizes = [| 1; 2; 16; 256 |]

(* --- The oracle property --- *)

let prop_fast_matches_scalar =
  QCheck.Test.make ~count:40 ~name:"fast lane = scalar loop (results + table)"
    QCheck.(
      quad (int_bound 3) (int_bound 7)
        (pair bool bool)
        (int_range 1 400))
    (fun (mi, si_ei, (use_confidence, tagged), executions) ->
      let model = models.(mi land 1) in
      let seed = seeds.(si_ei land 1) in
      let entries = entry_sizes.(si_ei lsr 1 land 3) in
      let p = pipeline_of model seed in
      let mk () =
        Vp_predict.Vp_table.create ~entries ~use_confidence ~tagged ()
      in
      let ta = mk () and tb = mk () in
      let ra = Vliw_vp.Trace_sim.run ~executions ~table:ta p in
      let rb = Trace_sim_ref.run ~executions ~table:tb p in
      ra = rb
      && Vp_predict.Vp_table.evictions ta = Vp_predict.Vp_table.evictions tb
      && Vp_predict.Vp_table.utilization ta
         = Vp_predict.Vp_table.utilization tb)

(* --- Slot aliasing regression ---

   Two PCs hashing to the same slot of a tagged table evict each other on
   every alternation; the simulator must replay those evictions in
   schedule order, not slot-discovery order. A 1-entry table forces every
   static load of the model onto one slot — the maximal aliasing case. *)

let test_aliasing_one_entry () =
  let p = pipeline_of Vp_workload.Spec_model.compress 42 in
  let mk () = Vp_predict.Vp_table.create ~entries:1 () in
  let ta = mk () and tb = mk () in
  let ra = Vliw_vp.Trace_sim.run ~executions:600 ~table:ta p in
  let rb = Trace_sim_ref.run ~executions:600 ~table:tb p in
  Alcotest.check result "one-slot table: identical results" rb ra;
  checki "identical eviction counts"
    (Vp_predict.Vp_table.evictions tb)
    (Vp_predict.Vp_table.evictions ta);
  checkb "aliasing actually fired" true
    (Vp_predict.Vp_table.evictions ta > 0)

let test_two_pcs_same_slot () =
  (* The distilled regression: a 1-entry table, two PCs, interleaved
     touches. The batch API must match per-touch [predict_and_train]
     byte for byte, including the tag-eviction ordering. *)
  let values_a = Array.init 64 (fun i -> 3 * i) in
  let values_b = Array.init 64 (fun i -> 100 - i) in
  let mk () = Vp_predict.Vp_table.create ~entries:1 () in
  let scalar = mk () in
  let expect = Bytes.create 128 in
  for k = 0 to 63 do
    Bytes.set expect (2 * k)
      (if
         Vp_predict.Vp_table.predict_and_train scalar ~pc:11
           ~actual:values_a.(k)
       then '\001'
       else '\000');
    Bytes.set expect ((2 * k) + 1)
      (if
         Vp_predict.Vp_table.predict_and_train scalar ~pc:22
           ~actual:values_b.(k)
       then '\001'
       else '\000')
  done;
  let batch = mk () in
  let pcs = Array.init 128 (fun t -> if t land 1 = 0 then 11 else 22) in
  let vals =
    Array.init 128 (fun t ->
        if t land 1 = 0 then values_a.(t / 2) else values_b.(t / 2))
  in
  let got = Bytes.create 128 in
  Vp_predict.Vp_table.run_slot batch ~pcs vals ~len:128 ~correct:got;
  Alcotest.(check string)
    "interleaved outcomes identical" (Bytes.to_string expect)
    (Bytes.to_string got);
  checki "identical eviction counts"
    (Vp_predict.Vp_table.evictions scalar)
    (Vp_predict.Vp_table.evictions batch);
  checkb "every alternation evicted" true
    (Vp_predict.Vp_table.evictions batch >= 126)

let test_run_slot_uniform_matches_scalar () =
  let values = Array.init 200 (fun i -> (i * i) land 1023) in
  let scalar = Vp_predict.Vp_table.create ~entries:64 ~use_confidence:true () in
  let expect =
    Array.map
      (fun v -> Vp_predict.Vp_table.predict_and_train scalar ~pc:5 ~actual:v)
      values
  in
  let batch = Vp_predict.Vp_table.create ~entries:64 ~use_confidence:true () in
  let got = Bytes.create 200 in
  Vp_predict.Vp_table.run_slot_uniform batch ~pc:5 values ~len:200
    ~correct:got;
  Array.iteri
    (fun k e ->
      checkb (Printf.sprintf "touch %d" k) e (Bytes.get got k = '\001'))
    expect;
  (* and the table states agree on the next prediction *)
  Alcotest.(check (option int))
    "post-sequence prediction identical"
    (Vp_predict.Vp_table.predict scalar ~pc:5)
    (Vp_predict.Vp_table.predict batch ~pc:5)

let test_uniform_empty_does_not_claim () =
  let t = Vp_predict.Vp_table.create ~entries:8 () in
  Vp_predict.Vp_table.run_slot_uniform t ~pc:3 [||] ~len:0
    ~correct:Bytes.empty;
  Alcotest.(check (float 1e-9))
    "len = 0 leaves the table untouched" 0.0
    (Vp_predict.Vp_table.utilization t)

(* --- Deadlock order ---

   A CCB too small for a block's speculation deadlocks the machine. The
   per-execution loop raises at the first deadlocking execution in
   schedule order. At CCB 2 that is not compress's lowest-numbered
   deadlocking block, so a phase 2 that replayed memo misses in block
   order would raise a different block's deadlock. *)

let test_deadlock_order () =
  let p = pipeline_of Vp_workload.Spec_model.compress 42 in
  let p = { p with config = { p.config with ccb_capacity = Some 2 } } in
  let under f =
    try
      ignore (f ());
      Ok ()
    with Vp_engine.Dual_engine.Deadlock m -> Error m
  in
  let expect = under (fun () -> Trace_sim_ref.run p) in
  checkb "the small CCB deadlocks" true (Result.is_error expect);
  Alcotest.(check (result unit string))
    "same deadlock as the per-execution loop" expect
    (under (fun () -> Vliw_vp.Trace_sim.run p))

(* --- Determinism and telemetry --- *)

let test_fast_deterministic () =
  let p = pipeline_of Vp_workload.Spec_model.compress 42 in
  let r1 = Vliw_vp.Trace_sim.run ~executions:500 p in
  let r2 = Vliw_vp.Trace_sim.run ~executions:500 p in
  Alcotest.check result "repeat run identical" r1 r2

(* The integer fields of the [spec_eval] telemetry section. *)
let spec_eval_counters () =
  let spec_eval = Vliw_vp.Pipeline.telemetry () in
  List.map
    (fun name -> (name, Telemetry_doc.int spec_eval name))
    [ "bitset_words"; "bitset_vectors"; "prep_memo_hits"; "prep_memo_misses" ]

let test_telemetry_counters () =
  (* A pipeline no earlier test has simulated: per-pipeline state (and the
     mask memo inside it) persists across runs, so only a first-ever run
     has predictable replay counters. *)
  let p = pipeline_of Vp_workload.Spec_model.compress 9 in
  Vliw_vp.Trace_sim.clear_stats ();
  let s0 = Vliw_vp.Trace_sim.stats () in
  checki "cleared" 0
    (s0.runs + s0.memo_hits + s0.engine_replays + s0.alias_evictions);
  let spec_eval = spec_eval_counters () in
  ignore (Vliw_vp.Trace_sim.run ~executions:500 p);
  let s1 = Vliw_vp.Trace_sim.stats () in
  checki "one run" 1 s1.runs;
  (* the replays are trace-sim's own count, not scenario batches: the
     batch occupancy counters do not move *)
  let after = spec_eval_counters () in
  let field name l = List.assoc name l in
  List.iter
    (fun name ->
      checki (name ^ " unchanged") (field name spec_eval) (field name after))
    [ "bitset_words"; "bitset_vectors" ];
  (* the kernels are the pipeline's own: every speculated block that ran
     read its preparation back from the memo, and none was prepared
     again *)
  checki "prep_memo_misses unchanged"
    (field "prep_memo_misses" spec_eval)
    (field "prep_memo_misses" after);
  checkb "prep_memo_hits rose" true
    (field "prep_memo_hits" after > field "prep_memo_hits" spec_eval);
  checkb "engine ran at least once" true (s1.engine_replays > 0);
  checkb "memo served repeats" true (s1.memo_hits > 0);
  (* non-speculated block executions touch neither counter *)
  checkb "speculated executions = memo hits + replays" true
    (s1.memo_hits + s1.engine_replays <= 500);
  ignore (Vliw_vp.Trace_sim.run ~executions:500 p);
  let s2 = Vliw_vp.Trace_sim.stats () in
  checki "two runs" 2 s2.runs;
  (* The memo persists per pipeline: a repeat run on the same pipeline
     draws the same schedule, finds every one of its
     (memo_hits1 + engine_replays1) speculated executions already
     memoized, and replays nothing. *)
  checki "no new engine replays against the warm memo" s1.engine_replays
    s2.engine_replays;
  checki "repeat run fully served from the persistent memo"
    ((2 * s1.memo_hits) + s1.engine_replays)
    s2.memo_hits;
  let aliased = Vp_predict.Vp_table.create ~entries:1 () in
  ignore (Vliw_vp.Trace_sim.run ~executions:200 ~table:aliased p);
  let s3 = Vliw_vp.Trace_sim.stats () in
  checkb "alias evictions surfaced" true (s3.alias_evictions > 0);
  let section = Vliw_vp.Trace_sim.telemetry () in
  List.iter
    (fun (name, value) ->
      checki ("telemetry " ^ name) value (Telemetry_doc.int section name))
    [
      ("runs", s3.runs);
      ("memo_hits", s3.memo_hits);
      ("engine_replays", s3.engine_replays);
      ("alias_evictions", s3.alias_evictions);
    ]

let () =
  Alcotest.run "trace_sim"
    [
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest prop_fast_matches_scalar;
          Alcotest.test_case "one-entry table aliasing" `Quick
            test_aliasing_one_entry;
          Alcotest.test_case "two PCs, one slot" `Quick test_two_pcs_same_slot;
          Alcotest.test_case "run_slot_uniform = predict_and_train" `Quick
            test_run_slot_uniform_matches_scalar;
          Alcotest.test_case "empty uniform run claims nothing" `Quick
            test_uniform_empty_does_not_claim;
          Alcotest.test_case "deadlock order" `Quick test_deadlock_order;
        ] );
      ( "fast lane",
        [
          Alcotest.test_case "deterministic" `Quick test_fast_deterministic;
          Alcotest.test_case "telemetry counters" `Quick
            test_telemetry_counters;
        ] );
    ]
