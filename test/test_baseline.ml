(* Tests for vp_baseline: the static recovery scheme of paper-ref [4],
   instruction-memory layout, and the cache-cost accounting. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let op = Vp_ir.Operation.make
let machine = Vp_machine.Descr.playdoh ~width:4

let chain_block () =
  Vp_ir.Block.of_ops ~label:"chain"
    [
      op ~dst:20 ~srcs:[ 1; 2 ] ~id:0 Vp_ir.Opcode.Add;
      op ~dst:21 ~srcs:[ 20 ] ~stream:0 ~id:0 Vp_ir.Opcode.Load;
      op ~dst:22 ~srcs:[ 21; 3 ] ~id:0 Vp_ir.Opcode.Mul;
      op ~dst:23 ~srcs:[ 22; 21 ] ~id:0 Vp_ir.Opcode.Add;
      op ~srcs:[ 4; 23 ] ~id:0 Vp_ir.Opcode.Store;
    ]

let speculate block =
  match Vp_vspec.Transform.apply machine ~rate:(fun _ -> Some 0.9) block with
  | Vp_vspec.Transform.Speculated sb -> sb
  | Vp_vspec.Transform.Unchanged r -> Alcotest.failf "unchanged: %s" r

(* --- Static_recovery --- *)

let test_comp_block_contents () =
  let sb = speculate (chain_block ()) in
  let rec_scheme = Vp_baseline.Static_recovery.build machine sb in
  let comps = Vp_baseline.Static_recovery.comp_blocks rec_scheme in
  checki "one comp block per prediction"
    (Vp_vspec.Spec_block.num_predictions sb)
    (Array.length comps);
  (* the compensation block holds exactly the speculated ops *)
  Alcotest.(check (list int))
    "re-executes the speculated ops"
    (Vp_vspec.Spec_block.spec_ops sb)
    comps.(0).op_ids;
  checkb "comp schedule validates" true
    (Vp_sched.Schedule.validate comps.(0).schedule = Ok ())

let test_cycles_arithmetic () =
  let sb = speculate (chain_block ()) in
  let r = Vp_baseline.Static_recovery.build ~branch_penalty:3 machine sb in
  let spec_len = Vp_sched.Schedule.length sb.schedule in
  let comp_len =
    Vp_sched.Schedule.length
      (Vp_baseline.Static_recovery.comp_blocks r).(0).schedule
  in
  checki "all correct = main schedule" spec_len
    (Vp_baseline.Static_recovery.cycles r ~outcomes:[| true |]);
  checki "mispredict adds branches + comp block"
    (spec_len + (2 * 3) + comp_len)
    (Vp_baseline.Static_recovery.cycles r ~outcomes:[| false |]);
  checki "compensation cycles"
    ((2 * 3) + comp_len)
    (Vp_baseline.Static_recovery.compensation_cycles r ~outcomes:[| false |]);
  checki "no compensation when correct" 0
    (Vp_baseline.Static_recovery.compensation_cycles r ~outcomes:[| true |])

let test_code_sizes () =
  let sb = speculate (chain_block ()) in
  let r = Vp_baseline.Static_recovery.build machine sb in
  checkb "main instructions positive" true
    (Vp_baseline.Static_recovery.main_code_instructions r > 0);
  checkb "compensation grows the code" true
    (Vp_baseline.Static_recovery.compensation_instructions r > 0)

let test_dual_always_at_least_as_good_under_mispredict () =
  (* the architectural claim: parallel recovery beats serialized recovery *)
  let sb = speculate (chain_block ()) in
  let rec_scheme = Vp_baseline.Static_recovery.build machine sb in
  let reference =
    Vp_engine.Reference.run (chain_block ())
      ~load_values:(fun _ -> 5)
      ~live_in:Vp_engine.Reference.live_in
  in
  List.iter
    (fun outcomes ->
      let dual =
        Vp_engine.Dual_engine.run sb ~reference
          ~live_in:Vp_engine.Reference.live_in ~outcomes
      in
      checkb "dual <= static recovery" true
        (dual.cycles <= Vp_baseline.Static_recovery.cycles rec_scheme ~outcomes))
    (Vp_engine.Scenario.enumerate (Vp_vspec.Spec_block.num_predictions sb))

(* --- Layout --- *)

let test_layout_addresses () =
  let l =
    Vp_baseline.Layout.build ~bytes_per_instruction:16
      ~main_instructions:[| 4; 2 |]
      ~comp_instructions:[| [| 3 |]; [||] |]
      ()
  in
  let a0, b0 = Vp_baseline.Layout.main_range l 0 in
  let ac, bc = Vp_baseline.Layout.comp_range l ~block:0 ~prediction:0 in
  let a1, b1 = Vp_baseline.Layout.main_range l 1 in
  checki "block 0 at 0" 0 a0;
  checki "block 0 bytes" 64 b0;
  checki "comp right after" 64 ac;
  checki "comp bytes" 48 bc;
  checki "block 1 after comp" 112 a1;
  checki "block 1 bytes" 32 b1;
  checki "total" 144 (Vp_baseline.Layout.total_bytes l);
  Alcotest.(check (float 1e-9)) "code growth" 0.5
    (Vp_baseline.Layout.code_growth l)

let test_layout_validation () =
  checkb "mismatched arrays" true
    (try
       ignore
         (Vp_baseline.Layout.build ~main_instructions:[| 1 |]
            ~comp_instructions:[||] ());
       false
     with Invalid_argument _ -> true)

(* --- Cache cost --- *)

let test_cache_cost_pollution () =
  (* two blocks with fat compensation blocks; a trace alternating them with
     frequent mispredictions must miss more when compensation code is in
     instruction memory *)
  let main = [| 16; 16 |] in
  let comp = [| [| 16 |]; [| 16 |] |] in
  let layout_with =
    Vp_baseline.Layout.build ~bytes_per_instruction:16 ~main_instructions:main
      ~comp_instructions:comp ()
  in
  let layout_without =
    Vp_baseline.Layout.build ~bytes_per_instruction:16 ~main_instructions:main
      ~comp_instructions:[| [||]; [||] |] ()
  in
  let trace =
    Array.init 400 (fun i -> (i mod 2, [| i mod 3 = 0 |]))
  in
  let icache () = Vp_cache.Icache.create ~line_bytes:32 ~ways:2 ~size_bytes:1024 () in
  let with_comp =
    Vp_baseline.Cache_cost.simulate ~icache:(icache ()) ~layout:layout_with
      ~miss_penalty:8 ~touch_comp:true ~trace
  in
  let without =
    Vp_baseline.Cache_cost.simulate ~icache:(icache ()) ~layout:layout_without
      ~miss_penalty:8 ~touch_comp:false ~trace
  in
  checkb "compensation pollutes the cache" true
    (with_comp.stats.misses > without.stats.misses);
  checkb "extra cycles = misses * penalty" true
    (with_comp.extra_cycles = with_comp.stats.misses * 8);
  checkb "per-execution cost positive" true
    (with_comp.cycles_per_execution > without.cycles_per_execution)

let test_cache_cost_empty_trace () =
  let layout =
    Vp_baseline.Layout.build ~main_instructions:[| 1 |]
      ~comp_instructions:[| [||] |] ()
  in
  let r =
    Vp_baseline.Cache_cost.simulate
      ~icache:(Vp_cache.Icache.create ~size_bytes:1024 ())
      ~layout ~miss_penalty:8 ~touch_comp:false ~trace:[||]
  in
  checki "no accesses" 0 r.stats.accesses;
  Alcotest.(check (float 1e-9)) "no cost" 0.0 r.cycles_per_execution

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "vp_baseline"
    [
      ( "static_recovery",
        [
          tc "comp block contents" test_comp_block_contents;
          tc "cycles arithmetic" test_cycles_arithmetic;
          tc "code sizes" test_code_sizes;
          tc "dual dominates" test_dual_always_at_least_as_good_under_mispredict;
        ] );
      ( "layout",
        [
          tc "addresses" test_layout_addresses;
          tc "validation" test_layout_validation;
        ] );
      ( "cache_cost",
        [
          tc "pollution" test_cache_cost_pollution;
          tc "empty trace" test_cache_cost_empty_trace;
        ] );
    ]
