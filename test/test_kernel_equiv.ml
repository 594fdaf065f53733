(* Kernel equivalence: the compiled scenario kernel ([Vp_engine.Compiled])
   must be indistinguishable from the interpreting oracle
   ([Vp_engine.Dual_engine.run]) — structurally equal [result] records for
   every block and every outcome vector, and the same deadlock message —
   and its lane arena must not allocate per run beyond the result records
   themselves. *)

let checkb = Alcotest.(check bool)
let machine = Vp_machine.Descr.playdoh ~width:4
let live_in = Vp_engine.Reference.live_in
let rate_all r (_ : Vp_ir.Operation.t) = Some r

let pp_result ppf (r : Vp_engine.Dual_engine.result) =
  Format.fprintf ppf
    "{cycles=%d; vliw=%d; stalls=%d; flushed=%d; recomputed=%d; high=%d; \
     mispred=%d; final=[%s]; stores=[%s]}"
    r.cycles r.vliw_cycles r.stall_cycles r.flushed r.recomputed
    r.ccb_high_water r.mispredicted
    (String.concat ";"
       (List.map (fun (a, b) -> Printf.sprintf "%d,%d" a b) r.final_regs))
    (String.concat ";"
       (List.map (fun (a, b) -> Printf.sprintf "%d,%d" a b) r.stores))

let result = Alcotest.testable pp_result ( = )

(* One shared lane arena across every test exercises cross-block reuse:
   each compiled block must reset exactly the state it touches. *)
let lanes = Vp_engine.Compiled.Lanes.create ()

(* One outcome vector as a one-lane word: the call a trace-sim mask-memo
   miss makes. *)
let run_one ?ccb_capacity ?cce_retire_width compiled outcomes =
  (Vp_engine.Compiled.run_bitset ?ccb_capacity ?cce_retire_width compiled
     lanes ~vectors:[| outcomes |]).(0)

let reference_of (sb : Vp_vspec.Spec_block.t) =
  Vp_engine.Reference.run sb.original_block
    ~load_values:(fun id -> 1000 + (13 * id))
    ~live_in

let check_block ?ccb_capacity ?cce_retire_width label sb outcomes_list =
  let reference = reference_of sb in
  let compiled = Vp_engine.Compiled.compile sb ~reference ~live_in in
  (* A tight CCB can genuinely deadlock the machine; the kernel must then
     deadlock exactly when the oracle does, with the same message. *)
  let under f =
    try Ok (f ()) with Vp_engine.Dual_engine.Deadlock m -> Error (`Deadlock m)
  in
  List.iter
    (fun outcomes ->
      let oracle =
        under (fun () ->
            Vp_engine.Dual_engine.run ?ccb_capacity ?cce_retire_width sb
              ~reference ~live_in ~outcomes)
      in
      let kernel =
        under (fun () ->
            run_one ?ccb_capacity ?cce_retire_width compiled outcomes)
      in
      Alcotest.check
        (Alcotest.result result (Alcotest.of_pp (fun ppf (`Deadlock m) ->
             Format.fprintf ppf "deadlock: %s" m)))
        (Printf.sprintf "%s %s" label
           (String.concat ""
              (List.map
                 (fun b -> if b then "C" else "W")
                 (Array.to_list outcomes))))
        oracle kernel)
    outcomes_list

(* --- The paper's worked example, all scenarios, several machine shapes --- *)

let test_example_all_scenarios () =
  let sb = Vliw_vp.Example.spec () in
  let all = Vp_engine.Scenario.enumerate 2 in
  check_block "example" sb all;
  check_block ~ccb_capacity:1 "example ccb=1" sb all;
  check_block ~ccb_capacity:2 ~cce_retire_width:2 "example ccb=2 w=2" sb all;
  check_block ~cce_retire_width:4 "example w=4" sb all

(* --- Random workload blocks x random outcome vectors --- *)

let speculated_blocks =
  lazy
    (List.concat_map
       (fun (model : Vp_workload.Spec_model.t) ->
         List.filter_map
           (fun seed ->
             let block, _ =
               Vp_workload.Block_gen.generate model
                 ~rng:(Vp_util.Rng.create seed)
                 ~stream_base:0
                 ~label:(Printf.sprintf "%s-%d" model.name seed)
             in
             match
               Vp_vspec.Transform.apply machine ~rate:(rate_all 0.9) block
             with
             | Vp_vspec.Transform.Speculated sb -> Some sb
             | Vp_vspec.Transform.Unchanged _ -> None)
           [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ])
       Vp_workload.Spec_model.all)

let outcome_vectors n ~rng ~draws =
  if n <= 4 then Vp_engine.Scenario.enumerate n
  else
    List.init draws (fun _ ->
        Array.init n (fun _ -> Vp_util.Rng.bool rng))

let test_random_blocks () =
  let blocks = Lazy.force speculated_blocks in
  checkb "generators produced speculated blocks" true
    (List.length blocks > 10);
  let rng = Vp_util.Rng.create 2026 in
  List.iter
    (fun (sb : Vp_vspec.Spec_block.t) ->
      let n = Array.length sb.predicted in
      check_block
        (Vp_ir.Block.label sb.block)
        sb
        (outcome_vectors n ~rng ~draws:12))
    blocks

let test_random_blocks_constrained () =
  let rng = Vp_util.Rng.create 7 in
  List.iteri
    (fun i (sb : Vp_vspec.Spec_block.t) ->
      if i mod 3 = 0 then
        let n = Array.length sb.predicted in
        check_block ~ccb_capacity:1 ~cce_retire_width:2
          (Vp_ir.Block.label sb.block)
          sb
          (outcome_vectors n ~rng ~draws:6))
    (Lazy.force speculated_blocks)

let prop_kernel_matches_oracle =
  QCheck.Test.make ~count:60
    ~name:"compiled kernel = oracle on arbitrary blocks and outcomes"
    QCheck.(triple small_int (int_bound 7) small_int)
    (fun (seed, pick, oseed) ->
      let models = Vp_workload.Spec_model.all in
      let model = List.nth models (pick mod List.length models) in
      let block, _ =
        Vp_workload.Block_gen.generate model
          ~rng:(Vp_util.Rng.create seed)
          ~stream_base:0 ~label:"equiv"
      in
      match Vp_vspec.Transform.apply machine ~rate:(rate_all 0.8) block with
      | Vp_vspec.Transform.Unchanged _ -> true
      | Vp_vspec.Transform.Speculated sb ->
          let reference = reference_of sb in
          let compiled =
            Vp_engine.Compiled.compile sb ~reference ~live_in
          in
          let n = Vp_engine.Compiled.num_predictions compiled in
          let rng = Vp_util.Rng.create oseed in
          List.for_all
            (fun outcomes ->
              Vp_engine.Dual_engine.run sb ~reference ~live_in ~outcomes
              = run_one compiled outcomes)
            (outcome_vectors n ~rng ~draws:8))

(* --- Bitset batches vs per-vector oracle runs --- *)

let batch_vectors n ~rng =
  (* enumerated prefix + random draws + deliberate duplicates *)
  let enum = if n <= 3 then Vp_engine.Scenario.enumerate n else [] in
  let draws =
    List.init 10 (fun _ -> Array.init n (fun _ -> Vp_util.Rng.bool rng))
  in
  let all = enum @ draws in
  Array.of_list (all @ [ List.hd all ] @ [ List.nth all (List.length all / 2) ])

(* [run_bitset] must be observationally identical to mapping
   [Dual_engine.run] over the vectors — including duplicated vectors, lanes
   whose timing diverges, and the per-vector-loop deadlock behaviour
   (first deadlocking vector in input order wins, with the same
   message). *)
let check_bitset ?ccb_capacity ?cce_retire_width ?compiled label sb vectors
    =
  let reference = reference_of sb in
  let compiled =
    match compiled with
    | Some compiled -> compiled
    | None -> Vp_engine.Compiled.compile sb ~reference ~live_in
  in
  let under f =
    try Ok (f ())
    with Vp_engine.Dual_engine.Deadlock m -> Error (`Deadlock m)
  in
  let one outcomes =
    Vp_engine.Dual_engine.run ?ccb_capacity ?cce_retire_width sb ~reference
      ~live_in ~outcomes
  in
  let seq = under (fun () -> Array.map one vectors) in
  let bitset =
    under (fun () ->
        Vp_engine.Compiled.run_bitset ?ccb_capacity ?cce_retire_width compiled
          lanes ~vectors)
  in
  Alcotest.check
    (Alcotest.result
       (Alcotest.array result)
       (Alcotest.of_pp (fun ppf (`Deadlock m) ->
            Format.fprintf ppf "deadlock: %s" m)))
    label seq bitset

(* Chunking boundaries: a word holds 63 lanes, so 62 / 63 / 64 / 127
   vectors cross the one-word and two-word edges. Built by cycling a base
   set, so chunks carry duplicates and mixed outcomes. *)
let test_bitset_chunking () =
  let sb =
    match Lazy.force speculated_blocks with
    | sb :: _ -> sb
    | [] -> Alcotest.fail "no speculated blocks"
  in
  let n = Array.length sb.predicted in
  let rng = Vp_util.Rng.create 46 in
  let base =
    Array.init 16 (fun _ -> Array.init n (fun _ -> Vp_util.Rng.bool rng))
  in
  List.iter
    (fun count ->
      let vectors = Array.init count (fun i -> base.(i mod 16)) in
      check_bitset (Printf.sprintf "chunking %d vectors" count) sb vectors)
    [ 1; 62; 63; 64; 127 ]

(* --- Bitset batches vs the executable spec, every shape --- *)

(* Every machine shape this file runs under: the default unbounded CCB,
   a one-entry CCB, a two-entry CCB retiring two per cycle, a wide CCE,
   and a one-entry CCB retiring two per cycle. *)
let shapes =
  [
    ("", None, None);
    (" ccb=1", Some 1, None);
    (" ccb=2 w=2", Some 2, Some 2);
    (" w=4", None, Some 4);
    (" ccb=1 w=2", Some 1, Some 2);
  ]

(* [run_bitset] is the only evaluator of a speculated block outside the
   oracle: the worked example at every scenario, then every workload block
   with duplicated and random vectors. A kernel holds no machine shape, so
   each block is compiled once and its kernel runs under every shape in
   turn: a shape one run left in the kernel would show in the next. *)
let test_bitset_spec_engine () =
  let rng = Vp_util.Rng.create 44 in
  let cases =
    ( "example",
      Vliw_vp.Example.spec (),
      Array.of_list (Vp_engine.Scenario.enumerate 2) )
    :: List.map
         (fun (sb : Vp_vspec.Spec_block.t) ->
           ( Vp_ir.Block.label sb.block,
             sb,
             batch_vectors (Array.length sb.predicted) ~rng ))
         (Lazy.force speculated_blocks)
  in
  let rejects f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  List.iter
    (fun (label, sb, vectors) ->
      let reference = reference_of sb in
      let compiled = Vp_engine.Compiled.compile sb ~reference ~live_in in
      List.iter
        (fun (suffix, ccb_capacity, cce_retire_width) ->
          check_bitset ?ccb_capacity ?cce_retire_width ~compiled
            (label ^ suffix) sb vectors)
        shapes;
      (* A retire width below 1 is refused at run time, as the oracle
         refuses it. *)
      checkb (label ^ " w=0 rejected by the oracle") true
        (rejects (fun () ->
             Vp_engine.Dual_engine.run ~cce_retire_width:0 sb ~reference
               ~live_in ~outcomes:vectors.(0)));
      checkb (label ^ " w=0 rejected by the kernel") true
        (rejects (fun () ->
             Vp_engine.Compiled.run_bitset ~cce_retire_width:0 compiled lanes
               ~vectors)))
    cases

(* Arbitrary blocks and CCB/CCE shapes: [run_bitset] on a whole batch =
   [run_bitset] on each vector alone = per-vector [Dual_engine.run],
   deadlock messages included. *)
let prop_bitset_matches_per_vector =
  QCheck.Test.make ~count:60
    ~name:"run_bitset = per-vector oracle"
    QCheck.(quad small_int (int_bound 7) small_int (int_bound 4))
    (fun (seed, pick, oseed, shape) ->
      let models = Vp_workload.Spec_model.all in
      let model = List.nth models (pick mod List.length models) in
      let block, _ =
        Vp_workload.Block_gen.generate model
          ~rng:(Vp_util.Rng.create seed)
          ~stream_base:0 ~label:"bitset-equiv"
      in
      match Vp_vspec.Transform.apply machine ~rate:(rate_all 0.8) block with
      | Vp_vspec.Transform.Unchanged _ -> true
      | Vp_vspec.Transform.Speculated sb ->
          let _, ccb_capacity, cce_retire_width = List.nth shapes shape in
          let reference = reference_of sb in
          let compiled = Vp_engine.Compiled.compile sb ~reference ~live_in in
          let n = Vp_engine.Compiled.num_predictions compiled in
          let rng = Vp_util.Rng.create oseed in
          let vectors = batch_vectors n ~rng in
          let under f =
            try Ok (f ())
            with Vp_engine.Dual_engine.Deadlock m -> Error m
          in
          let bitset =
            under (fun () ->
                Vp_engine.Compiled.run_bitset ?ccb_capacity ?cce_retire_width
                  compiled lanes ~vectors)
          in
          under (fun () ->
              Array.map (run_one ?ccb_capacity ?cce_retire_width compiled)
                vectors)
          = bitset
          && under (fun () ->
                 Array.map
                   (fun outcomes ->
                     Vp_engine.Dual_engine.run ?ccb_capacity ?cce_retire_width
                       sb ~reference ~live_in ~outcomes)
                   vectors)
             = bitset)

(* --- Allocation regression --- *)

(* The lane arena's whole point: a one-vector run — a trace-sim memo
   miss — allocates only the result record, its lists and the call's
   small bookkeeping. The oracle's hashtables/queues cost tens of
   kilowords per run; a generous fixed budget still fails loudly if any
   per-run structure creeps back in. *)
let test_arena_allocation () =
  let sb = Vliw_vp.Example.spec () in
  let reference = Vliw_vp.Example.reference () in
  let compiled = Vp_engine.Compiled.compile sb ~reference ~live_in in
  let lanes = Vp_engine.Compiled.Lanes.create () in
  let vectors = [| [| true; false |] |] in
  for _ = 1 to 3 do
    ignore (Vp_engine.Compiled.run_bitset compiled lanes ~vectors)
  done;
  let runs = 100 in
  let before = Gc.minor_words () in
  for _ = 1 to runs do
    ignore (Vp_engine.Compiled.run_bitset compiled lanes ~vectors)
  done;
  let per_run = (Gc.minor_words () -. before) /. float_of_int runs in
  checkb
    (Printf.sprintf "per-run allocation %.0f words < 2048" per_run)
    true (per_run < 2048.0)

(* The bitset hot loop itself must not allocate: lane state lives in
   Bigarray slabs, so a run's minor words are the result records and their
   lists only. 63 lanes of the worked example extract 63 records; the
   budget is generous per record but fails loudly on any per-cycle or
   per-lane structure creeping in. *)
let test_bitset_allocation () =
  let sb = Vliw_vp.Example.spec () in
  let reference = Vliw_vp.Example.reference () in
  let compiled = Vp_engine.Compiled.compile sb ~reference ~live_in in
  let lanes = Vp_engine.Compiled.Lanes.create () in
  let vectors =
    Array.init 63 (fun i -> [| i land 1 = 0; i land 2 = 0 |])
  in
  for _ = 1 to 3 do
    ignore (Vp_engine.Compiled.run_bitset compiled lanes ~vectors)
  done;
  let runs = 100 in
  let before = Gc.minor_words () in
  for _ = 1 to runs do
    ignore (Vp_engine.Compiled.run_bitset compiled lanes ~vectors)
  done;
  let per_lane =
    (Gc.minor_words () -. before) /. float_of_int (runs * Array.length vectors)
  in
  checkb
    (Printf.sprintf "per-lane allocation %.0f words < 256" per_lane)
    true (per_lane < 256.0)

(* Alcotest pads group names to the longest one and cuts test names to fit
   80 columns, so a longest group name other than 13 characters shifts
   every printed test name of this suite. *)
let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "kernel_equiv"
    [
      ( "equivalence",
        [
          tc "worked example, all scenarios" test_example_all_scenarios;
          tc "random workload blocks" test_random_blocks;
          tc "random blocks, tight CCB / wide CCE"
            test_random_blocks_constrained;
          QCheck_alcotest.to_alcotest prop_kernel_matches_oracle;
        ] );
      ( "bitset-lanes",
        [
          tc "chunking boundaries 62/63/64/127" test_bitset_chunking;
          QCheck_alcotest.to_alcotest prop_bitset_matches_per_vector;
        ] );
      ( "engine-oracle",
        [ tc "bitset = Dual_engine.run per vector" test_bitset_spec_engine ]
      );
      ( "allocation",
        [
          tc "arena path stays flat" test_arena_allocation;
          tc "bitset lanes stay flat" test_bitset_allocation;
        ] );
    ]
