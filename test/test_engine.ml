(* Tests for vp_engine: ALU semantics, the reference executor, scenarios,
   and — most importantly — the dual-engine co-simulator. The headline
   property: under EVERY misprediction pattern, the dual-engine machine
   leaves exactly the architectural state of the sequential reference. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let op = Vp_ir.Operation.make
let machine = Vp_machine.Descr.playdoh ~width:4
let live_in = Vp_engine.Reference.live_in

(* --- Alu --- *)

let test_alu_eval () =
  let e o args = Vp_engine.Alu.eval o args in
  checki "add" 7 (e Vp_ir.Opcode.Add [ 3; 4 ]);
  checki "sub" (-1) (e Vp_ir.Opcode.Sub [ 3; 4 ]);
  checki "mul" 12 (e Vp_ir.Opcode.Mul [ 3; 4 ]);
  checki "div" 3 (e Vp_ir.Opcode.Div [ 13; 4 ]);
  checki "div by zero is 0" 0 (e Vp_ir.Opcode.Div [ 13; 0 ]);
  checki "and" 1 (e Vp_ir.Opcode.And [ 5; 3 ]);
  checki "or" 7 (e Vp_ir.Opcode.Or [ 5; 3 ]);
  checki "xor" 6 (e Vp_ir.Opcode.Xor [ 5; 3 ]);
  checki "shift" 40 (e Vp_ir.Opcode.Shift [ 5; 3 ]);
  checki "move" 9 (e Vp_ir.Opcode.Move [ 9 ]);
  checki "cmp lt" 1 (e Vp_ir.Opcode.Cmp [ 1; 2 ]);
  checki "cmp ge" 0 (e Vp_ir.Opcode.Cmp [ 2; 1 ]);
  checki "fadd as int" 7 (e Vp_ir.Opcode.Fadd [ 3; 4 ])

let test_alu_errors () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  checkb "load" true (raises (fun () -> Vp_engine.Alu.eval Vp_ir.Opcode.Load [ 1 ]));
  checkb "store" true (raises (fun () -> Vp_engine.Alu.eval Vp_ir.Opcode.Store [ 1; 2 ]));
  checkb "arity" true (raises (fun () -> Vp_engine.Alu.eval Vp_ir.Opcode.Add [ 1 ]))

let test_alu_load_result () =
  checki "right address" 42
    (Vp_engine.Alu.load_result ~addr:8 ~correct_addr:8 ~correct_value:42);
  checkb "wrong address differs deterministically" true
    (let a = Vp_engine.Alu.load_result ~addr:9 ~correct_addr:8 ~correct_value:42 in
     let b = Vp_engine.Alu.load_result ~addr:9 ~correct_addr:8 ~correct_value:42 in
     a = b)

let test_alu_wrong_value () =
  List.iter
    (fun v -> checkb "differs" true (Vp_engine.Alu.wrong_value v <> v))
    [ 0; 1; -1; max_int; 123456 ]

(* --- Reference --- *)

let reference_block () =
  Vp_ir.Block.of_ops
    [
      op ~dst:20 ~srcs:[ 1; 2 ] ~id:0 Vp_ir.Opcode.Add;
      op ~dst:21 ~srcs:[ 20 ] ~stream:0 ~id:0 Vp_ir.Opcode.Load;
      op ~dst:22 ~srcs:[ 21; 21 ] ~id:0 Vp_ir.Opcode.Mul;
      op ~srcs:[ 20; 22 ] ~id:0 Vp_ir.Opcode.Store;
    ]

let test_reference_run () =
  let r =
    Vp_engine.Reference.run (reference_block ())
      ~load_values:(fun _ -> 6)
      ~live_in:(fun r -> r * 10)
  in
  checki "add result" 30 r.results.(0);
  checki "load result" 6 r.results.(1);
  checki "mul result" 36 r.results.(2);
  Alcotest.(check (list int)) "store operands" [ 30; 36 ] r.operands.(3);
  Alcotest.(check (list (pair int int))) "stores" [ (30, 36) ] r.stores;
  checkb "final regs include r22 = 36" true
    (List.mem (22, 36) r.final_regs);
  checkb "final regs include live-in r1" true (List.mem (1, 10) r.final_regs)

let test_reference_rejects_ldpred () =
  let b =
    Vp_ir.Block.of_ops [ op ~dst:1 ~id:0 Vp_ir.Opcode.Ld_pred ]
  in
  checkb "ldpred rejected" true
    (try
       ignore
         (Vp_engine.Reference.run b ~load_values:(fun _ -> 0)
            ~live_in:(fun _ -> 0));
       false
     with Invalid_argument _ -> true)

(* --- Scenario --- *)

let test_scenario_enumerate () =
  checki "2^3 scenarios" 8 (List.length (Vp_engine.Scenario.enumerate 3));
  checki "empty" 1 (List.length (Vp_engine.Scenario.enumerate 0));
  let all = Vp_engine.Scenario.enumerate 2 in
  checkb "first all-incorrect" true
    (Vp_engine.Scenario.is_all_incorrect (List.hd all));
  checkb "last all-correct" true
    (Vp_engine.Scenario.is_all_correct (List.nth all 3))

let test_scenario_probability () =
  let rates = [| 0.9; 0.5 |] in
  let total =
    List.fold_left
      (fun acc s -> acc +. Vp_engine.Scenario.probability ~rates s)
      0.0
      (Vp_engine.Scenario.enumerate 2)
  in
  Alcotest.(check (float 1e-9)) "probabilities sum to 1" 1.0 total;
  Alcotest.(check (float 1e-9)) "all correct" 0.45
    (Vp_engine.Scenario.probability ~rates [| true; true |])

let test_scenario_counts () =
  checki "count" 2 (Vp_engine.Scenario.count_correct [| true; false; true |]);
  checkb "empty is vacuously all-correct" true
    (Vp_engine.Scenario.is_all_correct [||]);
  checkb "empty is not all-incorrect" false
    (Vp_engine.Scenario.is_all_incorrect [||])

(* --- Dual engine on the paper's worked example --- *)

let example_results () =
  List.map
    (fun (c : Vliw_vp.Example.case) -> (c.label, c))
    (Vliw_vp.Example.cases ())

let test_example_best_case () =
  let _, c = List.find (fun (l, _) -> String.length l > 3 && l.[1] = 'b')
      (example_results ()) in
  checki "best case cycles" 7 c.result.cycles;
  checki "no stalls" 0 c.result.stall_cycles;
  checki "nothing recomputed" 0 c.result.recomputed;
  checki "all four speculated ops flushed" 4 c.result.flushed;
  checki "original is 11" 11 (Vliw_vp.Example.original_cycles ())

let test_example_misprediction_cases () =
  let get ch = snd (List.find (fun (l, _) -> l.[1] = ch) (example_results ())) in
  let c = get 'c' and d = get 'd' and e = get 'e' in
  (* the paper: the r4 case and the both-wrong case execute the same
     compensation and take the same time *)
  checki "case (d) = case (e)" d.result.cycles e.result.cycles;
  checki "(d)/(e) recompute the r4-dependent chain" 4 d.result.recomputed;
  checki "(c) recomputes only the r7 dependents" 2 c.result.recomputed;
  checkb "compensation for r4 is larger than for r7" true
    (d.result.recomputed > c.result.recomputed);
  (* parallel recovery keeps the penalty to ~1 cycle over the original *)
  List.iter
    (fun (case : Vliw_vp.Example.case) ->
      checkb "misprediction penalty small" true
        (case.result.cycles <= Vliw_vp.Example.original_cycles () + 1))
    [ c; d; e ];
  (* and decisively beats the serialized static-recovery scheme *)
  checkb "(d) beats [4]" true (d.result.cycles < d.recovery_cycles);
  checkb "(e) beats [4] by a lot" true
    (e.result.cycles + 5 <= e.recovery_cycles)

let test_example_state_correct () =
  let reference = Vliw_vp.Example.reference () in
  List.iter
    (fun (_, (c : Vliw_vp.Example.case)) ->
      checkb "registers match reference" true
        (c.result.final_regs = reference.final_regs))
    (example_results ())

(* --- Dual engine semantics on crafted blocks --- *)

let speculate ?policy block =
  match
    Vp_vspec.Transform.apply ?policy machine ~rate:(fun _ -> Some 0.9) block
  with
  | Vp_vspec.Transform.Speculated sb -> sb
  | Vp_vspec.Transform.Unchanged r -> Alcotest.failf "unchanged: %s" r

let run ?ccb_capacity sb reference outcomes =
  Vp_engine.Dual_engine.run ?ccb_capacity sb ~reference ~live_in ~outcomes

let test_vliw_cycles_bound () =
  let sb = speculate (reference_block ()) in
  let reference =
    Vp_engine.Reference.run (reference_block ())
      ~load_values:(fun _ -> 6) ~live_in
  in
  List.iter
    (fun outcomes ->
      let r = run sb reference outcomes in
      checkb "vliw_cycles <= cycles" true (r.vliw_cycles <= r.cycles);
      checkb "cycles >= best static" true
        (r.vliw_cycles >= Vp_sched.Schedule.length sb.schedule - r.stall_cycles))
    (Vp_engine.Scenario.enumerate (Vp_vspec.Spec_block.num_predictions sb))

let test_best_case_equals_static () =
  let sb = speculate (reference_block ()) in
  let reference =
    Vp_engine.Reference.run (reference_block ())
      ~load_values:(fun _ -> 6) ~live_in
  in
  let n = Vp_vspec.Spec_block.num_predictions sb in
  let r = run sb reference (Vp_engine.Scenario.all_correct n) in
  checki "best = static length" (Vp_sched.Schedule.length sb.schedule) r.cycles;
  checki "no stalls" 0 r.stall_cycles;
  checki "no recomputation" 0 r.recomputed

let test_ccb_capacity_stalls_but_stays_correct () =
  let sb = speculate (reference_block ()) in
  let reference =
    Vp_engine.Reference.run (reference_block ())
      ~load_values:(fun _ -> 6) ~live_in
  in
  let n = Vp_vspec.Spec_block.num_predictions sb in
  let unlimited = run sb reference (Vp_engine.Scenario.all_incorrect n) in
  let tiny = run ~ccb_capacity:1 sb reference (Vp_engine.Scenario.all_incorrect n) in
  checkb "tiny CCB no faster" true (tiny.cycles >= unlimited.cycles);
  checkb "still correct" true (tiny.final_regs = reference.final_regs);
  checkb "high water bounded" true (tiny.ccb_high_water <= 1)

let test_outcome_arity_checked () =
  let sb = speculate (reference_block ()) in
  let reference =
    Vp_engine.Reference.run (reference_block ())
      ~load_values:(fun _ -> 6) ~live_in
  in
  checkb "wrong arity rejected" true
    (try ignore (run sb reference [| true; true; true; true; true |]); false
     with Invalid_argument _ -> true)

let test_run_unspeculated () =
  let b = reference_block () in
  let reference = Vp_engine.Reference.run b ~load_values:(fun _ -> 6) ~live_in in
  let s = Vp_sched.List_scheduler.schedule_block machine b in
  let r = Vp_engine.Dual_engine.run_unspeculated s ~reference in
  checki "cycles = schedule length" (Vp_sched.Schedule.length s) r.cycles;
  checkb "state is the reference" true (r.final_regs = reference.final_regs)

(* A block exercising the CCE writeback subtleties: a speculative value read
   by a later store, with the register reused afterwards. *)
let test_register_reuse_with_recovery () =
  let b =
    Vp_ir.Block.of_ops
      [
        op ~dst:20 ~srcs:[ 1 ] ~stream:0 ~id:0 Vp_ir.Opcode.Load;
        op ~dst:21 ~srcs:[ 20; 2 ] ~id:0 Vp_ir.Opcode.Add (* speculative *);
        op ~srcs:[ 3; 21 ] ~id:0 Vp_ir.Opcode.Store (* needs corrected r21 *);
        op ~dst:21 ~srcs:[ 4; 5 ] ~id:0 Vp_ir.Opcode.Xor (* reuses r21 *);
      ]
  in
  let sb = speculate b in
  let reference = Vp_engine.Reference.run b ~load_values:(fun _ -> 77) ~live_in in
  List.iter
    (fun outcomes ->
      let r = run sb reference outcomes in
      checkb "stores correct" true (r.stores = reference.stores);
      checkb "registers correct" true (r.final_regs = reference.final_regs))
    (Vp_engine.Scenario.enumerate (Vp_vspec.Spec_block.num_predictions sb))

(* A bounded CCB without a matching speculation budget can genuinely
   deadlock (hardware/compiler co-design, documented in Dual_engine):
   speculative consumers fill the buffer before the check — scheduled after
   them — can issue. The engine must detect it, and the budgeted transform
   must avoid it. *)
let test_bounded_ccb_codesign () =
  let b =
    Vp_ir.Block.of_ops
      [
        op ~dst:20 ~srcs:[ 1; 2 ] ~id:0 Vp_ir.Opcode.Add;
        op ~dst:21 ~srcs:[ 20; 3 ] ~id:0 Vp_ir.Opcode.Add;
        op ~dst:22 ~srcs:[ 21; 4 ] ~id:0 Vp_ir.Opcode.Add;
        op ~dst:23 ~srcs:[ 22 ] ~stream:0 ~id:0 Vp_ir.Opcode.Load;
        op ~dst:24 ~srcs:[ 23; 23 ] ~id:0 Vp_ir.Opcode.Mul;
        op ~dst:25 ~srcs:[ 24; 5 ] ~id:0 Vp_ir.Opcode.Add;
        op ~dst:26 ~srcs:[ 25; 6 ] ~id:0 Vp_ir.Opcode.Xor;
      ]
  in
  let reference = Vp_engine.Reference.run b ~load_values:(fun _ -> 9) ~live_in in
  let sb = speculate b in
  checkb "speculation set exceeds the tiny buffer" true
    (List.length (Vp_vspec.Spec_block.spec_ops sb) > 1);
  checkb "deadlock detected and reported" true
    (try
       ignore (run ~ccb_capacity:1 sb reference [| true |]);
       false
     with Vp_engine.Dual_engine.Deadlock _ -> true);
  (* the co-designed compiler bounds the speculation set to the buffer *)
  let sb_budgeted =
    speculate
      ~policy:{ Vp_vspec.Policy.default with max_sync_bits = 2 }
      b
  in
  checkb "budgeted set fits" true
    (List.length (Vp_vspec.Spec_block.spec_ops sb_budgeted) <= 1);
  List.iter
    (fun outcomes ->
      let r = run ~ccb_capacity:1 sb_budgeted reference outcomes in
      checkb "correct under the bounded buffer" true
        (r.final_regs = reference.final_regs))
    (Vp_engine.Scenario.enumerate 1)

(* --- Engine tracing (the Figure-7 view) --- *)

let test_trace_structure () =
  let trace = Vliw_vp.Example.figure7 () in
  checkb "non-empty" true (trace <> []);
  (* cycles are consecutive from 0 *)
  List.iteri
    (fun i (s : Vp_engine.Engine_trace.snapshot) -> checki "cycle" i s.cycle)
    trace;
  (* every op issues exactly once across the trace *)
  let issued = List.concat_map (fun (s : Vp_engine.Engine_trace.snapshot) -> s.issued) trace in
  let sb = Vliw_vp.Example.spec () in
  checki "all ops issued once" (Vp_ir.Block.size sb.block)
    (List.length (List.sort_uniq compare issued));
  checki "no double issue" (List.length issued)
    (List.length (List.sort_uniq compare issued))

let test_trace_ccb_fifo () =
  (* Between consecutive snapshots, the CCB loses entries only from the
     head and gains entries only at the tail. *)
  let trace = Vliw_vp.Example.figure7 () in
  let rec drop_head remaining later =
    (* strip popped head entries until [remaining] is a prefix of [later] *)
    let rec is_prefix p l =
      match (p, l) with
      | [], _ -> true
      | x :: xs, y :: ys -> x = y && is_prefix xs ys
      | _, [] -> false
    in
    if is_prefix remaining later then Some remaining
    else match remaining with [] -> None | _ :: tl -> drop_head tl later
  in
  let rec walk = function
    | (a : Vp_engine.Engine_trace.snapshot)
      :: (b : Vp_engine.Engine_trace.snapshot) :: rest ->
        (match drop_head a.ccb b.ccb with
        | None -> Alcotest.fail "entries vanished from the middle of the CCB"
        | Some surviving ->
            let appended =
              List.filteri (fun i _ -> i >= List.length surviving) b.ccb
            in
            List.iter
              (fun s ->
                checkb "appended entries are new" false (List.mem s a.ccb))
              appended);
        walk (b :: rest)
    | _ -> ()
  in
  walk trace

let test_trace_states_converge () =
  let trace = Vliw_vp.Example.figure7 () in
  let last = List.nth trace (List.length trace - 1) in
  (* at the end, no value is left unverified *)
  List.iter
    (fun (e : Vp_engine.Engine_trace.ovb_entry) ->
      checkb "final state resolved" true
        (e.state = Vp_engine.Engine_trace.C || e.state = Vp_engine.Engine_trace.R))
    last.ovb;
  (* the mispredicted r7 value ends R, the correct r4 value ends C *)
  let state_of label =
    (List.find
       (fun (e : Vp_engine.Engine_trace.ovb_entry) -> e.label = label)
       last.ovb)
      .state
  in
  checkb "r4 correct" true (state_of "v4" = Vp_engine.Engine_trace.C);
  checkb "r7 recomputed" true (state_of "v7" = Vp_engine.Engine_trace.R)

let test_trace_matches_untraced_run () =
  (* observing must not perturb the machine *)
  let sb = Vliw_vp.Example.spec () in
  let reference = Vliw_vp.Example.reference () in
  let observer, _ = Vp_engine.Engine_trace.collector () in
  let traced =
    Vp_engine.Dual_engine.run ~observer sb ~reference ~live_in
      ~outcomes:[| true; false |]
  in
  let plain =
    Vp_engine.Dual_engine.run sb ~reference ~live_in ~outcomes:[| true; false |]
  in
  checki "same cycles" plain.cycles traced.cycles;
  checkb "same state" true (plain.final_regs = traced.final_regs)

(* --- Predication --- *)

let test_guarded_execution () =
  (* a predicted load feeding a cmp; two complementary guarded adds; a
     store of the surviving value. The guarded ops are non-speculative
     consumers; state must match the reference under every scenario. *)
  let b =
    Vp_ir.Block.of_ops
      [
        op ~dst:20 ~srcs:[ 1 ] ~stream:0 ~id:0 Vp_ir.Opcode.Load;
        op ~dst:21 ~srcs:[ 20; 2 ] ~id:1 Vp_ir.Opcode.Cmp;
        op ~dst:22 ~srcs:[ 20; 3 ] ~guard:(21, true) ~id:2 Vp_ir.Opcode.Add;
        op ~dst:23 ~srcs:[ 20; 4 ] ~guard:(21, false) ~id:3 Vp_ir.Opcode.Sub;
        op ~srcs:[ 5; 22 ] ~guard:(21, true) ~id:4 Vp_ir.Opcode.Store;
        op ~srcs:[ 5; 23 ] ~guard:(21, false) ~id:5 Vp_ir.Opcode.Store;
      ]
  in
  (* exercise both predicate outcomes via the load value *)
  List.iter
    (fun load_value ->
      let reference =
        Vp_engine.Reference.run b ~load_values:(fun _ -> load_value) ~live_in
      in
      Alcotest.(check int) "exactly one store fires" 1
        (List.length reference.stores);
      let sb = speculate b in
      List.iter
        (fun outcomes ->
          let r = run sb reference outcomes in
          checkb "registers match" true (r.final_regs = reference.final_regs);
          checkb "stores match" true (r.stores = reference.stores))
        (Vp_engine.Scenario.enumerate
           (Vp_vspec.Spec_block.num_predictions sb)))
    [ 0 (* cmp false: 0 < live_in 2? depends on live-ins *); 100_000 ]

let test_guarded_speculation_rule () =
  (* a guarded op with a FIRST-WRITE destination may be speculated (its old
     value is restorable); one whose destination was written earlier may
     not *)
  let b =
    Vp_ir.Block.of_ops
      [
        op ~dst:20 ~srcs:[ 1 ] ~stream:0 ~id:0 Vp_ir.Opcode.Load;
        op ~dst:21 ~srcs:[ 20; 20 ] ~guard:(2, true) ~id:1 Vp_ir.Opcode.Mul;
        op ~dst:22 ~srcs:[ 4; 5 ] ~id:2 Vp_ir.Opcode.Add;
        op ~dst:22 ~srcs:[ 20; 3 ] ~guard:(2, true) ~id:3 Vp_ir.Opcode.Xor;
      ]
  in
  let sb = speculate b in
  let form i = (Vp_ir.Block.op sb.block i).Vp_ir.Operation.form in
  (* transformed ids are shifted by the single LdPred *)
  checkb "first-write guarded op speculates" true
    (match form 2 with Vp_ir.Operation.Speculative _ -> true | _ -> false);
  checkb "rewriting guarded op does not" true
    (form 4 = Vp_ir.Operation.Non_speculative);
  (* and the machine stays correct under every combination *)
  List.iter
    (fun load_value ->
      let reference =
        Vp_engine.Reference.run b ~load_values:(fun _ -> load_value) ~live_in
      in
      List.iter
        (fun outcomes ->
          let r = run sb reference outcomes in
          checkb "state equivalence" true
            (r.final_regs = reference.final_regs))
        (Vp_engine.Scenario.enumerate 1))
    [ 0; 999_999 ]

let test_speculative_guard_producer () =
  (* the guard itself is computed speculatively from a predicted load:
     a wrong prediction makes the VLIW engine take the wrong side of the
     predicate, and recovery must restore the untouched destination *)
  let b =
    Vp_ir.Block.of_ops
      [
        op ~dst:20 ~srcs:[ 1 ] ~stream:0 ~id:0 Vp_ir.Opcode.Load;
        op ~dst:21 ~srcs:[ 20; 2 ] ~id:1 Vp_ir.Opcode.Cmp;
        op ~dst:22 ~srcs:[ 20; 3 ] ~guard:(21, true) ~id:2 Vp_ir.Opcode.Add;
        op ~dst:23 ~srcs:[ 20; 4 ] ~guard:(21, false) ~id:3 Vp_ir.Opcode.Sub;
        op ~dst:24 ~srcs:[ 22; 23 ] ~id:4 Vp_ir.Opcode.Xor;
        op ~srcs:[ 5; 24 ] ~id:5 Vp_ir.Opcode.Store;
      ]
  in
  let sb = speculate b in
  (* the cmp and both guarded ops must all have been speculated, otherwise
     this test is not exercising the restore path *)
  checkb "guarded ops speculated" true
    (List.length (Vp_vspec.Spec_block.spec_ops sb) >= 3);
  List.iter
    (fun load_value ->
      let reference =
        Vp_engine.Reference.run b ~load_values:(fun _ -> load_value) ~live_in
      in
      List.iter
        (fun outcomes ->
          let r = run sb reference outcomes in
          checkb "registers restored correctly" true
            (r.final_regs = reference.final_regs);
          checkb "stores correct" true (r.stores = reference.stores))
        (Vp_engine.Scenario.enumerate 1))
    [ 0; 50_000; 999_999 ]

(* --- Block sequences: Dual_engine.run_sequence --- *)

let seq_pipeline =
  lazy
    (Vliw_vp.Pipeline.run
       ~config:
         { Vliw_vp.Config.default with trace_length = 500; monte_carlo_draws = 8 }
       Vp_workload.Spec_model.compress)

let test_sequence_matches_solo () =
  (* a single-instance sequence is exactly the per-block simulator *)
  let p = Lazy.force seq_pipeline in
  let checked = ref 0 in
  Array.iter
    (fun (b : Vliw_vp.Pipeline.block_eval) ->
      match b.spec with
      | Some spec when !checked < 20 ->
          List.iter
            (fun (sc : Vliw_vp.Pipeline.scenario_eval) ->
              incr checked;
              let reference = Vliw_vp.Pipeline.reference_of_block p b.index in
              let seq =
                Vp_engine.Dual_engine.run_sequence ~live_in
                  [
                    Speculated
                      { sb = spec.sb; reference; outcomes = sc.outcomes };
                  ]
              in
              let solo =
                Vp_engine.Dual_engine.run spec.sb ~reference ~live_in
                  ~outcomes:sc.outcomes
              in
              checki "total = solo cycles" solo.cycles seq.total_cycles;
              checki "stalls agree" solo.stall_cycles seq.stall_cycles;
              checki "flushed agree" solo.flushed seq.flushed;
              checki "recomputed agree" solo.recomputed seq.recomputed;
              checkb "state ok" true seq.state_ok)
            spec.scenarios
      | _ -> ())
    p.blocks;
  checkb "exercised" true (!checked > 10)

let test_sequence_multi_block () =
  let p = Lazy.force seq_pipeline in
  let rng = Vp_util.Rng.create 3 in
  let items_bounds =
    List.init 60 (fun _ ->
        let bi = Vp_util.Rng.int rng (Array.length p.blocks) in
        let b = p.blocks.(bi) in
        let reference = Vliw_vp.Pipeline.reference_of_block p bi in
        match b.spec with
        | None ->
            let wb =
              Vp_ir.Program.nth p.program bi
            in
            let s = Vp_sched.List_scheduler.schedule_block machine wb.block in
            (Vp_engine.Dual_engine.Plain (s, reference), b.original_cycles)
        | Some spec ->
            let outcomes = Vp_engine.Scenario.sample rng ~rates:spec.rates in
            let solo =
              Vp_engine.Dual_engine.run spec.sb ~reference ~live_in ~outcomes
            in
            ( Vp_engine.Dual_engine.Speculated
                { sb = spec.sb; reference; outcomes },
              solo.cycles ))
  in
  let r =
    Vp_engine.Dual_engine.run_sequence ~live_in (List.map fst items_bounds)
  in
  let sum_drain = List.fold_left (fun a (_, d) -> a + d) 0 items_bounds in
  checkb "state equivalence across the sequence" true r.state_ok;
  checkb "overlap never exceeds the drain bound" true
    (r.total_cycles <= sum_drain);
  checkb "issue cursor covered everything" true
    (r.issue_cycles <= r.total_cycles);
  checkb "accounting sane" true (r.total_cycles > 0 && r.stall_cycles >= 0)

let test_sequence_retire_width () =
  (* a wider CCE can only speed the sequence up, and stays correct *)
  let p = Lazy.force seq_pipeline in
  let rng = Vp_util.Rng.create 9 in
  let items =
    List.init 40 (fun _ ->
        let bi = Vp_util.Rng.int rng (Array.length p.blocks) in
        let reference = Vliw_vp.Pipeline.reference_of_block p bi in
        match p.blocks.(bi).spec with
        | None ->
            let wb = Vp_ir.Program.nth p.program bi in
            Vp_engine.Dual_engine.Plain
              (Vp_sched.List_scheduler.schedule_block machine wb.block, reference)
        | Some spec ->
            Vp_engine.Dual_engine.Speculated
              {
                sb = spec.sb;
                reference;
                outcomes =
                  Vp_engine.Scenario.all_incorrect
                    (Vp_vspec.Spec_block.num_predictions spec.sb);
              })
  in
  let run cce_retire_width =
    Vp_engine.Dual_engine.run_sequence ~cce_retire_width ~live_in items
  in
  let narrow = run 1 and wide = run 4 in
  checkb "wide no slower" true (wide.total_cycles <= narrow.total_cycles);
  checkb "both correct" true (narrow.state_ok && wide.state_ok)

let test_sequence_empty_and_plain () =
  let r = Vp_engine.Dual_engine.run_sequence ~live_in [] in
  checki "empty sequence" 0 r.total_cycles;
  let b = reference_block () in
  let reference = Vp_engine.Reference.run b ~load_values:(fun _ -> 6) ~live_in in
  let s = Vp_sched.List_scheduler.schedule_block machine b in
  let r =
    Vp_engine.Dual_engine.run_sequence ~live_in
      [ Plain (s, reference); Plain (s, reference) ]
  in
  (* two plain blocks back to back: second starts right after the first's
     last instruction, so the total is span + length *)
  checki "plain blocks pipeline"
    (Vp_sched.Schedule.num_instructions s + Vp_sched.Schedule.length s)
    r.total_cycles;
  checkb "no stalls" true (r.stall_cycles = 0)

(* --- Conservation: every speculated operation leaves the CCB once --- *)

(* A CCB entry is either flushed or re-executed, exactly once, so a run's
   [flushed + recomputed] is its block's count of speculative-form
   operations — under every scenario and retire width — and nothing is
   re-executed when every prediction is correct. A sequence's sums are the
   sums over its instances. Every speculated block of every model at seed
   42 and widths 4 and 8, all-correct, all-incorrect and every profiled
   scenario, with no block filtered out. *)
let test_ccb_conservation () =
  let violations = ref [] and runs = ref 0 in
  let violation fmt =
    Printf.ksprintf (fun m -> violations := m :: !violations) fmt
  in
  List.iter
    (fun width ->
      List.iter
        (fun (model : Vp_workload.Spec_model.t) ->
          let config = { Vliw_vp.Config.default with width; seed = 42 } in
          let p = Vliw_vp.Pipeline.run ~config model in
          let items = ref [] and spec_total = ref 0 in
          Array.iter
            (fun (b : Vliw_vp.Pipeline.block_eval) ->
              let reference = Vliw_vp.Pipeline.reference_of_block p b.index in
              match b.spec with
              | None ->
                  let block = (Vp_ir.Program.nth p.program b.index).block in
                  let s =
                    Vp_sched.List_scheduler.schedule_block
                      (Vliw_vp.Config.machine config) block
                  in
                  items := Vp_engine.Dual_engine.Plain (s, reference) :: !items
              | Some spec ->
                  let spec_ops =
                    List.length (Vp_vspec.Spec_block.spec_ops spec.sb)
                  in
                  let n = Vp_vspec.Spec_block.num_predictions spec.sb in
                  List.iter
                    (fun outcomes ->
                      List.iter
                        (fun cce_retire_width ->
                          incr runs;
                          let r =
                            Vp_engine.Dual_engine.run ~cce_retire_width spec.sb
                              ~reference ~live_in ~outcomes
                          in
                          let where =
                            Format.asprintf "%s %dw block %d %a retire %d"
                              model.name width b.index Vp_engine.Scenario.pp
                              outcomes cce_retire_width
                          in
                          if r.flushed + r.recomputed <> spec_ops then
                            violation "%s: %d flushed + %d recomputed <> %d"
                              where r.flushed r.recomputed spec_ops;
                          if
                            Vp_engine.Scenario.is_all_correct outcomes
                            && r.recomputed <> 0
                          then
                            violation "%s: %d recomputed when all correct"
                              where r.recomputed;
                          if
                            r.final_regs <> reference.final_regs
                            || r.stores <> reference.stores
                          then violation "%s: state differs" where)
                        [ 1; 4 ];
                      items :=
                        Vp_engine.Dual_engine.Speculated
                          { sb = spec.sb; reference; outcomes }
                        :: !items;
                      spec_total := !spec_total + spec_ops)
                    (Vp_engine.Scenario.all_correct n
                    :: Vp_engine.Scenario.all_incorrect n
                    :: List.map
                         (fun (sc : Vliw_vp.Pipeline.scenario_eval) ->
                           sc.outcomes)
                         spec.scenarios))
            p.blocks;
          List.iter
            (fun cce_retire_width ->
              let r =
                Vp_engine.Dual_engine.run_sequence ~cce_retire_width ~live_in
                  (List.rev !items)
              in
              let where =
                Printf.sprintf "%s %dw sequence retire %d" model.name width
                  cce_retire_width
              in
              if r.flushed + r.recomputed <> !spec_total then
                violation "%s: %d flushed + %d recomputed <> %d" where
                  r.flushed r.recomputed !spec_total;
              if not r.state_ok then violation "%s: state differs" where)
            [ 1; 4 ])
        Vp_workload.Spec_model.all)
    [ 4; 8 ];
  checkb "exercised" true (!runs > 1000);
  match List.rev !violations with
  | [] -> ()
  | first :: _ as l ->
      Alcotest.failf "%d conservation violations over %d runs; first: %s"
        (List.length l) !runs first

(* --- The exhaustive equivalence property --- *)

let equivalence_over_model (model : Vp_workload.Spec_model.t) =
  let w = Vp_workload.Workload.generate model in
  let profile = Vp_profile.Value_profile.profile w in
  let failures = ref [] in
  Array.iteri
    (fun bi (wb : Vp_ir.Program.weighted_block) ->
      let rate (o : Vp_ir.Operation.t) =
        Vp_profile.Value_profile.rate profile ~block:bi ~op:o.id
      in
      match Vp_vspec.Transform.apply machine ~rate wb.block with
      | Vp_vspec.Transform.Unchanged _ -> ()
      | Vp_vspec.Transform.Speculated sb ->
          let values = Hashtbl.create 8 in
          List.iter
            (fun (o : Vp_ir.Operation.t) ->
              Hashtbl.replace values o.id
                (Vp_workload.Value_stream.next
                   (Vp_workload.Workload.stream w (Option.get o.stream))))
            (Vp_ir.Block.loads wb.block);
          let reference =
            Vp_engine.Reference.run wb.block
              ~load_values:(Hashtbl.find values) ~live_in
          in
          let n = min 4 (Vp_vspec.Spec_block.num_predictions sb) in
          List.iter
            (fun sc ->
              let outcomes =
                Array.init
                  (Vp_vspec.Spec_block.num_predictions sb)
                  (fun i -> if i < n then sc.(i) else true)
              in
              let r =
                try run sb reference outcomes
                with Vp_engine.Dual_engine.Deadlock m ->
                  Alcotest.failf "deadlock: %s" m
              in
              if
                r.final_regs <> reference.final_regs
                || r.stores <> reference.stores
              then failures := (model.name, bi) :: !failures)
            (Vp_engine.Scenario.enumerate n))
    (Vp_ir.Program.blocks (Vp_workload.Workload.program w));
  !failures

let test_equivalence name model () =
  match equivalence_over_model model with
  | [] -> ()
  | (_, bi) :: _ as l ->
      Alcotest.failf "%s: %d state mismatches (first at block %d)" name
        (List.length l) bi

(* --- QCheck property: random blocks, random outcomes, random values --- *)

let prop_equivalence_random =
  QCheck.Test.make
    ~name:"dual-engine state always equals the sequential reference"
    ~count:120
    QCheck.(triple int (int_bound 7) (int_bound 1000))
    (fun (seed, pick, outcome_seed) ->
      let model =
        List.nth Vp_workload.Spec_model.all
          (pick mod List.length Vp_workload.Spec_model.all)
      in
      let block, shapes =
        Vp_workload.Block_gen.generate model
          ~rng:(Vp_util.Rng.create seed)
          ~stream_base:0 ~label:"prop"
      in
      match
        Vp_vspec.Transform.apply machine ~rate:(fun _ -> Some 0.9) block
      with
      | Vp_vspec.Transform.Unchanged _ -> QCheck.assume_fail ()
      | Vp_vspec.Transform.Speculated sb ->
          let shapes = Array.of_list shapes in
          let value_rng = Vp_util.Rng.create (seed lxor 0x5555) in
          let values = Hashtbl.create 8 in
          List.iter
            (fun (o : Vp_ir.Operation.t) ->
              let s = Vp_workload.Value_stream.create value_rng
                  shapes.(Option.get o.stream) in
              Hashtbl.replace values o.id (Vp_workload.Value_stream.next s))
            (Vp_ir.Block.loads block);
          let reference =
            Vp_engine.Reference.run block ~load_values:(Hashtbl.find values)
              ~live_in
          in
          let orng = Vp_util.Rng.create outcome_seed in
          let outcomes =
            Array.init
              (Vp_vspec.Spec_block.num_predictions sb)
              (fun _ -> Vp_util.Rng.bool orng)
          in
          let r = run sb reference outcomes in
          r.final_regs = reference.final_regs && r.stores = reference.stores)

let prop_best_case_dominates =
  QCheck.Test.make
    ~name:"no misprediction pattern beats the all-correct execution"
    ~count:80
    QCheck.(triple int (int_bound 7) (int_bound 1000))
    (fun (seed, pick, outcome_seed) ->
      let model =
        List.nth Vp_workload.Spec_model.all
          (pick mod List.length Vp_workload.Spec_model.all)
      in
      let block, _ =
        Vp_workload.Block_gen.generate model
          ~rng:(Vp_util.Rng.create seed)
          ~stream_base:0 ~label:"prop"
      in
      match
        Vp_vspec.Transform.apply machine ~rate:(fun _ -> Some 0.9) block
      with
      | Vp_vspec.Transform.Unchanged _ -> QCheck.assume_fail ()
      | Vp_vspec.Transform.Speculated sb ->
          let reference =
            Vp_engine.Reference.run block ~load_values:(fun _ -> 11) ~live_in
          in
          let n = Vp_vspec.Spec_block.num_predictions sb in
          let orng = Vp_util.Rng.create outcome_seed in
          let outcomes = Array.init n (fun _ -> Vp_util.Rng.bool orng) in
          let best = run sb reference (Vp_engine.Scenario.all_correct n) in
          let r = run sb reference outcomes in
          r.cycles >= best.cycles && r.vliw_cycles >= best.vliw_cycles)

let prop_best_case_static =
  QCheck.Test.make
    ~name:"all-correct execution takes exactly the static schedule length"
    ~count:120
    QCheck.(pair int (int_bound 7))
    (fun (seed, pick) ->
      let model =
        List.nth Vp_workload.Spec_model.all
          (pick mod List.length Vp_workload.Spec_model.all)
      in
      let block, _ =
        Vp_workload.Block_gen.generate model
          ~rng:(Vp_util.Rng.create seed)
          ~stream_base:0 ~label:"prop"
      in
      match
        Vp_vspec.Transform.apply machine ~rate:(fun _ -> Some 0.9) block
      with
      | Vp_vspec.Transform.Unchanged _ -> QCheck.assume_fail ()
      | Vp_vspec.Transform.Speculated sb ->
          let reference =
            Vp_engine.Reference.run block ~load_values:(fun _ -> 11) ~live_in
          in
          let n = Vp_vspec.Spec_block.num_predictions sb in
          let r = run sb reference (Vp_engine.Scenario.all_correct n) in
          r.cycles = Vp_sched.Schedule.length sb.schedule
          && r.stall_cycles = 0)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "vp_engine"
    [
      ( "alu",
        [
          tc "eval" test_alu_eval;
          tc "errors" test_alu_errors;
          tc "load result" test_alu_load_result;
          tc "wrong value" test_alu_wrong_value;
        ] );
      ( "reference",
        [
          tc "run" test_reference_run;
          tc "rejects ldpred" test_reference_rejects_ldpred;
        ] );
      ( "scenario",
        [
          tc "enumerate" test_scenario_enumerate;
          tc "probability" test_scenario_probability;
          tc "counts" test_scenario_counts;
        ] );
      ( "worked example",
        [
          tc "best case" test_example_best_case;
          tc "misprediction cases" test_example_misprediction_cases;
          tc "state correct" test_example_state_correct;
        ] );
      ( "dual engine",
        [
          tc "vliw_cycles bound" test_vliw_cycles_bound;
          tc "best case = static" test_best_case_equals_static;
          tc "bounded CCB" test_ccb_capacity_stalls_but_stays_correct;
          tc "outcome arity" test_outcome_arity_checked;
          tc "run_unspeculated" test_run_unspeculated;
          tc "register reuse with recovery" test_register_reuse_with_recovery;
          tc "bounded CCB co-design" test_bounded_ccb_codesign;
        ] );
      ( "predication",
        [
          tc "guarded execution equivalence" test_guarded_execution;
          tc "guarded speculation rule" test_guarded_speculation_rule;
          tc "speculative guard producer" test_speculative_guard_producer;
        ] );
      ( "sequence engine",
        [
          tc "matches the per-block simulator" test_sequence_matches_solo;
          tc "multi-block overlap" test_sequence_multi_block;
          tc "retire width" test_sequence_retire_width;
          tc "empty and plain" test_sequence_empty_and_plain;
        ] );
      ( "conservation",
        [ slow "flushed + recomputed = speculated ops" test_ccb_conservation ]
      );
      ( "engine trace",
        [
          tc "structure" test_trace_structure;
          tc "ccb fifo discipline" test_trace_ccb_fifo;
          tc "states converge" test_trace_states_converge;
          tc "observation is passive" test_trace_matches_untraced_run;
        ] );
      ( "equivalence per benchmark",
        List.map
          (fun (m : Vp_workload.Spec_model.t) ->
            slow m.name (test_equivalence m.name m))
          Vp_workload.Spec_model.all );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_equivalence_random;
          QCheck_alcotest.to_alcotest prop_best_case_dominates;
          QCheck_alcotest.to_alcotest prop_best_case_static;
        ] );
    ]
