(* Tests for vp_vspec: speculation policy, the ISA-extension transform, and
   the structural invariants of speculated blocks. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let op = Vp_ir.Operation.make
let machine = Vp_machine.Descr.playdoh ~width:4

let rate_all r (_ : Vp_ir.Operation.t) = Some r

(* The canonical small test subject: an address computation feeding a load
   whose value feeds a chain, ending in a store. *)
let chain_block () =
  Vp_ir.Block.of_ops ~label:"chain"
    [
      op ~dst:20 ~srcs:[ 1; 2 ] ~id:0 Vp_ir.Opcode.Add;
      op ~dst:21 ~srcs:[ 20 ] ~stream:0 ~id:0 Vp_ir.Opcode.Load;
      op ~dst:22 ~srcs:[ 21; 3 ] ~id:0 Vp_ir.Opcode.Mul;
      op ~dst:23 ~srcs:[ 22; 21 ] ~id:0 Vp_ir.Opcode.Add;
      op ~srcs:[ 4; 23 ] ~id:0 Vp_ir.Opcode.Store;
    ]

let speculate ?policy ?(rate = rate_all 0.9) block =
  match Vp_vspec.Transform.apply ?policy machine ~rate block with
  | Vp_vspec.Transform.Speculated sb -> sb
  | Vp_vspec.Transform.Unchanged r -> Alcotest.failf "unexpectedly unchanged: %s" r

(* --- Policy --- *)

let test_policy_defaults () =
  let p = Vp_vspec.Policy.default in
  Alcotest.(check (float 1e-9)) "paper threshold" 0.65 p.threshold;
  checkb "critical path only" true p.critical_path_only;
  checkb "aggressive is looser" true
    (Vp_vspec.Policy.aggressive.threshold < p.threshold
    && Vp_vspec.Policy.aggressive.max_predictions > p.max_predictions)

(* --- Transform structure --- *)

let test_transform_basic_structure () =
  let sb = speculate (chain_block ()) in
  checki "one prediction" 1 (Vp_vspec.Spec_block.num_predictions sb);
  let p = sb.predicted.(0) in
  checki "the load" 1 p.orig_load_id;
  checki "ldpred is op 0" 0 p.ldpred_id;
  checki "check is the shifted load" 2 p.check_id;
  checki "dest reg" 21 p.dest_reg;
  checkb "pred reg is fresh" true (p.pred_reg > 23);
  (* ops 2 and 3 (original) become speculative; the store is non-spec *)
  let form i = (Vp_ir.Block.op sb.block i).Vp_ir.Operation.form in
  checkb "mul speculative" true
    (match form 3 with Vp_ir.Operation.Speculative _ -> true | _ -> false);
  checkb "add speculative" true
    (match form 4 with Vp_ir.Operation.Speculative _ -> true | _ -> false);
  checkb "store non-speculative" true (form 5 = Vp_ir.Operation.Non_speculative);
  checkb "address add stays normal" true (form 1 = Vp_ir.Operation.Normal)

let test_transform_renaming () =
  let sb = speculate (chain_block ()) in
  let p = sb.predicted.(0) in
  (* the direct consumer reads the predicted-value register *)
  let mul = Vp_ir.Block.op sb.block 3 in
  checkb "mul reads pred reg" true (List.mem p.pred_reg mul.srcs);
  checkb "mul no longer reads the load dest" false (List.mem 21 mul.srcs);
  (* the transitive consumer reads the load's dest through op 3's result and
     its own direct read of r21 is renamed too (edge-based renaming) *)
  let add = Vp_ir.Block.op sb.block 4 in
  checkb "direct read of r21 in add renamed" true (List.mem p.pred_reg add.srcs);
  (* the non-speculative store keeps architectural registers *)
  let store = Vp_ir.Block.op sb.block 5 in
  checkb "store reads r23" true (List.mem 23 store.srcs)

let test_transform_invariant () =
  checkb "invariant holds" true
    (Vp_vspec.Spec_block.invariant (speculate (chain_block ())) = Ok ())

let test_transform_improves_chain () =
  let sb = speculate (chain_block ()) in
  checkb "best case shorter" true
    (Vp_vspec.Spec_block.best_case_length sb
    < Vp_vspec.Spec_block.original_length sb)

let test_transform_schedules_validate () =
  let sb = speculate (chain_block ()) in
  checkb "spec schedule valid" true
    (Vp_sched.Schedule.validate sb.schedule = Ok ());
  checkb "orig schedule valid" true
    (Vp_sched.Schedule.validate sb.original_schedule = Ok ())

let test_wait_bits () =
  let sb = speculate (chain_block ()) in
  (* the store waits on the bit of its speculative producer (op 4) *)
  let store_id = 5 in
  (match (Vp_ir.Block.op sb.block 4).Vp_ir.Operation.form with
  | Vp_ir.Operation.Speculative { sync_bit } ->
      checkb "store waits on producer bit" true
        (List.mem sync_bit sb.wait_bits.(store_id))
  | _ -> Alcotest.fail "op 4 should be speculative");
  (* speculative ops never wait *)
  checkb "spec ops don't wait" true (sb.wait_bits.(3) = [])

let test_unchanged_reasons () =
  let no_loads =
    Vp_ir.Block.of_ops
      [ op ~dst:1 ~srcs:[ 2; 3 ] ~id:0 Vp_ir.Opcode.Add ]
  in
  (match Vp_vspec.Transform.apply machine ~rate:(rate_all 0.9) no_loads with
  | Vp_vspec.Transform.Unchanged _ -> ()
  | Vp_vspec.Transform.Speculated _ -> Alcotest.fail "no loads to predict");
  (* below threshold *)
  (match Vp_vspec.Transform.apply machine ~rate:(rate_all 0.3) (chain_block ()) with
  | Vp_vspec.Transform.Unchanged _ -> ()
  | Vp_vspec.Transform.Speculated _ -> Alcotest.fail "rate below threshold");
  (* unprofiled loads *)
  (match Vp_vspec.Transform.apply machine ~rate:(fun _ -> None) (chain_block ()) with
  | Vp_vspec.Transform.Unchanged _ -> ()
  | Vp_vspec.Transform.Speculated _ -> Alcotest.fail "no profile");
  (* a load whose only consumer is a store cannot be usefully speculated *)
  let store_only =
    Vp_ir.Block.of_ops
      [
        op ~dst:1 ~srcs:[ 2 ] ~stream:0 ~id:0 Vp_ir.Opcode.Load;
        op ~srcs:[ 3; 1 ] ~id:0 Vp_ir.Opcode.Store;
      ]
  in
  match Vp_vspec.Transform.apply machine ~rate:(rate_all 0.9) store_only with
  | Vp_vspec.Transform.Unchanged _ -> ()
  | Vp_vspec.Transform.Speculated _ -> Alcotest.fail "store-only consumer"

let test_non_speculative_veto () =
  let policy =
    {
      Vp_vspec.Policy.default with
      non_speculative = [ 3 ];
    }
  in
  let sb = speculate ~policy (chain_block ()) in
  (* original op 3 (transformed id 4) must now be non-speculative *)
  checkb "vetoed op is non-speculative" true
    ((Vp_ir.Block.op sb.block 4).Vp_ir.Operation.form
    = Vp_ir.Operation.Non_speculative)

let test_max_predictions_cap () =
  (* two independent predictable load chains; cap at one prediction *)
  let two_chains =
    Vp_ir.Block.of_ops
      [
        op ~dst:20 ~srcs:[ 1 ] ~stream:0 ~id:0 Vp_ir.Opcode.Load;
        op ~dst:21 ~srcs:[ 20; 2 ] ~id:0 Vp_ir.Opcode.Add;
        op ~dst:22 ~srcs:[ 3 ] ~stream:1 ~id:0 Vp_ir.Opcode.Load;
        op ~dst:23 ~srcs:[ 22; 21 ] ~id:0 Vp_ir.Opcode.Mul;
      ]
  in
  let policy =
    { Vp_vspec.Policy.default with max_predictions = 1; critical_path_only = false }
  in
  let sb = speculate ~policy two_chains in
  checki "capped to one" 1 (Vp_vspec.Spec_block.num_predictions sb)

let test_sync_budget_demotes () =
  (* a long chain off one load; with a 3-bit register (1 LdPred + 2 spec)
     only the first two dependents may be speculated *)
  let long_chain =
    Vp_ir.Block.of_ops
      (op ~dst:20 ~srcs:[ 1 ] ~stream:0 ~id:0 Vp_ir.Opcode.Load
      :: List.init 6 (fun i ->
             op ~dst:(21 + i) ~srcs:[ 20 + i; 20 + i ] ~id:0 Vp_ir.Opcode.Add))
  in
  let policy = { Vp_vspec.Policy.default with max_sync_bits = 3 } in
  let sb = speculate ~policy long_chain in
  checki "exactly 2 speculative ops" 2
    (List.length (Vp_vspec.Spec_block.spec_ops sb));
  checkb "bits within budget" true (sb.sync_bits_used <= 3);
  checkb "invariant" true (Vp_vspec.Spec_block.invariant sb = Ok ())

let test_critical_path_only () =
  (* one load on the critical path, one short side load; default policy
     predicts only the path load *)
  let b =
    Vp_ir.Block.of_ops
      [
        op ~dst:20 ~srcs:[ 1 ] ~stream:0 ~id:0 Vp_ir.Opcode.Load;
        op ~dst:21 ~srcs:[ 20; 2 ] ~id:0 Vp_ir.Opcode.Mul;
        op ~dst:22 ~srcs:[ 21; 21 ] ~id:0 Vp_ir.Opcode.Mul;
        op ~dst:23 ~srcs:[ 22; 22 ] ~id:0 Vp_ir.Opcode.Mul;
        op ~dst:30 ~srcs:[ 3 ] ~stream:1 ~id:0 Vp_ir.Opcode.Load;
        op ~dst:31 ~srcs:[ 30; 4 ] ~id:0 Vp_ir.Opcode.Add;
      ]
  in
  let sb = speculate b in
  checki "only the path load" 1 (Vp_vspec.Spec_block.num_predictions sb);
  checki "it is load 0" 0 sb.predicted.(0).orig_load_id;
  let all =
    speculate ~policy:{ Vp_vspec.Policy.default with critical_path_only = false } b
  in
  checki "without the restriction both qualify" 2
    (Vp_vspec.Spec_block.num_predictions all)

let test_iterative_selection () =
  (* Two loads chained: predicting the first exposes the second on the new
     critical path; iterative selection should catch both. *)
  let b =
    Vp_ir.Block.of_ops
      [
        op ~dst:20 ~srcs:[ 1 ] ~stream:0 ~id:0 Vp_ir.Opcode.Load;
        op ~dst:21 ~srcs:[ 20; 2 ] ~id:0 Vp_ir.Opcode.Add;
        op ~dst:22 ~srcs:[ 21 ] ~stream:1 ~id:0 Vp_ir.Opcode.Load;
        op ~dst:23 ~srcs:[ 22; 3 ] ~id:0 Vp_ir.Opcode.Mul;
        op ~dst:24 ~srcs:[ 23; 20 ] ~id:0 Vp_ir.Opcode.Add;
      ]
  in
  let sb = speculate b in
  checki "both chained loads predicted" 2
    (Vp_vspec.Spec_block.num_predictions sb)

let test_ldpreds_first_and_dependence_free () =
  let sb = speculate (chain_block ()) in
  let k = Vp_vspec.Spec_block.num_predictions sb in
  for i = 0 to k - 1 do
    let o = Vp_ir.Block.op sb.block i in
    checkb "ldpred opcode" true (o.opcode = Vp_ir.Opcode.Ld_pred);
    checkb "no sources" true (o.srcs = []);
    checkb "no incoming flow deps" true
      (List.for_all
         (fun (e : Vp_ir.Depgraph.edge) -> e.kind <> Vp_ir.Depgraph.Flow)
         (Vp_ir.Depgraph.preds sb.graph i))
  done

(* --- Whole-workload invariants --- *)

let transform_all_blocks () =
  List.concat_map
    (fun model ->
      let w = Vp_workload.Workload.generate model in
      let profile = Vp_profile.Value_profile.profile w in
      Array.to_list (Vp_ir.Program.blocks (Vp_workload.Workload.program w))
      |> List.mapi (fun i (wb : Vp_ir.Program.weighted_block) ->
             let rate (o : Vp_ir.Operation.t) =
               Vp_profile.Value_profile.rate profile ~block:i ~op:o.id
             in
             (model.name, i, Vp_vspec.Transform.apply machine ~rate wb.block)))
    Vp_workload.Spec_model.all

let test_workload_invariants () =
  let outcomes = transform_all_blocks () in
  let speculated = ref 0 in
  List.iter
    (fun (name, i, outcome) ->
      match outcome with
      | Vp_vspec.Transform.Unchanged _ -> ()
      | Vp_vspec.Transform.Speculated sb -> (
          incr speculated;
          match Vp_vspec.Spec_block.invariant sb with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s block %d: %s" name i e))
    outcomes;
  checkb "a healthy share of blocks speculates" true
    (10 * !speculated > List.length outcomes (* > 10% *))

let test_workload_wait_masks_bounded () =
  List.iter
    (fun (_, _, outcome) ->
      match outcome with
      | Vp_vspec.Transform.Unchanged _ -> ()
      | Vp_vspec.Transform.Speculated sb ->
          Array.iter
            (fun mask ->
              match Vp_util.Bitset.max_set_bit mask with
              | Some b -> checkb "mask within width" true (b < sb.sync_bits_used)
              | None -> ())
            sb.wait_masks)
    (transform_all_blocks ())

let test_workload_encoding_roundtrip () =
  List.iter
    (fun (name, i, outcome) ->
      match outcome with
      | Vp_vspec.Transform.Unchanged _ -> ()
      | Vp_vspec.Transform.Speculated sb ->
          Array.iteri
            (fun c ops ->
              let words =
                Vp_ir.Encoding.encode_instruction ~wait_mask:sb.wait_masks.(c)
                  ops
              in
              let mask, decoded = Vp_ir.Encoding.decode_instruction words in
              if not (Vp_util.Bitset.equal mask sb.wait_masks.(c)) then
                Alcotest.failf "%s block %d cycle %d: wait mask lost" name i c;
              List.iter2
                (fun (a : Vp_ir.Operation.t) (b : Vp_ir.Operation.t) ->
                  if { a with stream = None; id = 0 } <> { b with id = 0 }
                  then
                    Alcotest.failf "%s block %d cycle %d: operation lost" name
                      i c)
                ops decoded)
            (Vp_sched.Schedule.instructions sb.schedule))
    (transform_all_blocks ())

let test_workload_sync_budget () =
  List.iter
    (fun (_, _, outcome) ->
      match outcome with
      | Vp_vspec.Transform.Unchanged _ -> ()
      | Vp_vspec.Transform.Speculated sb ->
          checkb "within default budget" true
            (sb.sync_bits_used <= Vp_vspec.Policy.default.max_sync_bits))
    (transform_all_blocks ())

let prop_transform_deterministic =
  QCheck.Test.make ~name:"the transform is a pure function of its inputs"
    ~count:60
    QCheck.(pair int (int_bound 7))
    (fun (seed, pick) ->
      let model =
        List.nth Vp_workload.Spec_model.all
          (pick mod List.length Vp_workload.Spec_model.all)
      in
      let block, _ =
        Vp_workload.Block_gen.generate model
          ~rng:(Vp_util.Rng.create seed)
          ~stream_base:0 ~label:"det"
      in
      let run () =
        Vp_vspec.Transform.apply machine ~rate:(rate_all 0.9) block
      in
      match (run (), run ()) with
      | Vp_vspec.Transform.Unchanged a, Vp_vspec.Transform.Unchanged b ->
          a = b
      | Vp_vspec.Transform.Speculated a, Vp_vspec.Transform.Speculated b ->
          Array.to_list (Vp_ir.Block.ops a.block)
          = Array.to_list (Vp_ir.Block.ops b.block)
          && a.wait_bits = b.wait_bits
          && Array.for_all2 Vp_util.Bitset.equal a.wait_masks b.wait_masks
      | _ -> false)

(* --- Masked readings against the rebuilt-graph oracle
   (test/transform_ref.ml) --- *)

(* Blocks of every model's formed superblock and hyperblock programs. *)
let region_blocks =
  lazy
    (List.map
       (fun form ->
         Array.of_list
           (List.concat_map
              (fun model ->
                let w = Vp_workload.Workload.generate model in
                let cfg = Vp_workload.Cfg.derive w in
                Array.to_list (Vp_ir.Program.blocks (form w cfg))
                |> List.map (fun (wb : Vp_ir.Program.weighted_block) ->
                       wb.block))
              Vp_workload.Spec_model.all))
       [
         (fun w cfg ->
           fst
             (Vp_region.Superblock.form w cfg
                Vp_region.Superblock.default_params));
         (fun w cfg ->
           fst
             (Vp_region.Hyperblock.form w cfg
                Vp_region.Hyperblock.default_params));
       ])

(* Source 0: a [Block_gen] block; 1: a superblock-program block; 2: a
   hyperblock-program block. *)
let block_of ~source ~seed =
  if source = 0 then
    let models = Vp_workload.Spec_model.all in
    let model = List.nth models (abs seed mod List.length models) in
    fst
      (Vp_workload.Block_gen.generate model
         ~rng:(Vp_util.Rng.create seed)
         ~stream_base:0 ~label:"oracle")
  else
    let blocks = List.nth (Lazy.force region_blocks) (source - 1) in
    blocks.(abs seed mod Array.length blocks)

let widths = [| 2; 4; 8 |]

(* Profiled rates spread over [0, 1), some loads unprofiled, so the
   default threshold admits a varying subset. *)
let rates_of ~seed block =
  let rng = Random.State.make [| seed; 17 |] in
  Array.map
    (fun (o : Vp_ir.Operation.t) ->
      if Vp_ir.Operation.is_load o && Random.State.int rng 4 > 0 then
        Some (Random.State.float rng 1.0)
      else None)
    (Vp_ir.Block.ops block)

let oracle_policies =
  Vp_vspec.Policy.
    [|
      default;
      { default with critical_path_only = false };
      (* a superblock of the default 4 blocks holds 4 blocks' budget *)
      {
        default with
        max_predictions = 4 * default.max_predictions;
        max_sync_bits = 4 * default.max_sync_bits;
      };
    |]

let prop_transform_matches_oracle =
  QCheck.Test.make
    ~name:"apply = rebuilt-graph oracle: same selection, same outcome"
    ~count:400
    QCheck.(quad (int_bound 2) int (int_bound 2) (int_bound 2))
    (fun (source, seed, w, p) ->
      let block = block_of ~source ~seed in
      let machine = Vp_machine.Descr.playdoh ~width:widths.(w) in
      let policy = oracle_policies.(p) in
      let rates = rates_of ~seed block in
      let rate (o : Vp_ir.Operation.t) = rates.(o.id) in
      let run (readings : Vp_vspec.Transform.readings) =
        let chosen = ref [] in
        let select policy ~latency graph ~rate block =
          let s = readings.select policy ~latency graph ~rate block in
          chosen := s :: !chosen;
          s
        in
        let outcome =
          Vp_vspec.Transform.apply_with { readings with select } ~policy
            machine ~rate block
        in
        (!chosen, outcome)
      in
      run Vp_vspec.Transform.masked = run Transform_ref.readings)

let prop_mask_matches_virtual_graph =
  QCheck.Test.make
    ~name:"masked earliest, priority, critical path = virtual block's graph"
    ~count:500
    QCheck.(triple (int_bound 2) int (int_bound 2))
    (fun (source, seed, w) ->
      let block = block_of ~source ~seed in
      let latency =
        Vp_machine.Descr.latency (Vp_machine.Descr.playdoh ~width:widths.(w))
      in
      let rng = Random.State.make [| seed; 29 |] in
      let density = 1 + Random.State.int rng 4 in
      let replaced =
        Array.map
          (fun o ->
            Vp_ir.Operation.is_load o && Random.State.int rng 4 < density)
          (Vp_ir.Block.ops block)
      in
      let mask =
        {
          Vp_ir.Depgraph.replaced;
          stand_in_latency =
            latency
              (Vp_ir.Operation.make ~dst:0 ~srcs:[ 0 ] ~id:0 Vp_ir.Opcode.Move);
        }
      in
      let graph = Vp_ir.Depgraph.build ~latency block in
      let virt =
        Vp_ir.Depgraph.build ~latency
          (Transform_ref.virtual_block block ~replaced)
      in
      Vp_ir.Depgraph.earliest ~mask graph = Vp_ir.Depgraph.earliest virt
      && Vp_ir.Depgraph.priority ~mask graph = Vp_ir.Depgraph.priority virt
      && Vp_ir.Depgraph.critical_path ~mask graph
         = Vp_ir.Depgraph.critical_path virt)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "vp_vspec"
    [
      ("policy", [ tc "defaults" test_policy_defaults ]);
      ( "transform",
        [
          tc "basic structure" test_transform_basic_structure;
          tc "renaming" test_transform_renaming;
          tc "invariant" test_transform_invariant;
          tc "improves the chain" test_transform_improves_chain;
          tc "schedules validate" test_transform_schedules_validate;
          tc "wait bits" test_wait_bits;
          tc "unchanged reasons" test_unchanged_reasons;
          tc "non_speculative veto" test_non_speculative_veto;
          tc "max predictions cap" test_max_predictions_cap;
          tc "sync budget demotes" test_sync_budget_demotes;
          tc "critical path restriction" test_critical_path_only;
          tc "iterative selection" test_iterative_selection;
          tc "ldpreds lead, dependence-free" test_ldpreds_first_and_dependence_free;
        ] );
      ( "workloads",
        [
          tc "invariants hold everywhere" test_workload_invariants;
          tc "wait masks bounded" test_workload_wait_masks_bounded;
          tc "sync budget respected" test_workload_sync_budget;
          tc "extended ISA encodes and decodes" test_workload_encoding_roundtrip;
          QCheck_alcotest.to_alcotest prop_transform_deterministic;
        ] );
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest prop_transform_matches_oracle;
          QCheck_alcotest.to_alcotest prop_mask_matches_virtual_graph;
        ] );
    ]
