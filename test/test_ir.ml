(* Tests for vp_ir: opcodes, operations, blocks, programs, dependence
   graphs. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let op = Vp_ir.Operation.make

(* --- Opcode --- *)

let test_opcode_consistency () =
  List.iter
    (fun o ->
      (* side-effecting opcodes never write registers *)
      if Vp_ir.Opcode.has_side_effect o then
        checkb "side effect => no dst" false (Vp_ir.Opcode.writes_register o);
      checkb "arity non-negative" true (Vp_ir.Opcode.num_sources o >= 0);
      checkb "mnemonic nonempty" true
        (String.length (Vp_ir.Opcode.mnemonic o) > 0))
    Vp_ir.Opcode.all;
  List.iteri
    (fun i o -> checki "index = position in [all]" i (Vp_ir.Opcode.index o))
    Vp_ir.Opcode.all

let test_opcode_classes () =
  checkb "load is memory" true (Vp_ir.Opcode.is_memory Vp_ir.Opcode.Load);
  checkb "store is memory" true (Vp_ir.Opcode.is_memory Vp_ir.Opcode.Store);
  checkb "add is not" false (Vp_ir.Opcode.is_memory Vp_ir.Opcode.Add);
  checkb "branch" true (Vp_ir.Opcode.is_branch Vp_ir.Opcode.Branch);
  checkb "ldpred writes" true
    (Vp_ir.Opcode.writes_register Vp_ir.Opcode.Ld_pred);
  checki "ldpred has no sources" 0
    (Vp_ir.Opcode.num_sources Vp_ir.Opcode.Ld_pred)

(* --- Operation --- *)

let test_operation_make_valid () =
  let o = op ~dst:3 ~srcs:[ 1; 2 ] ~id:0 Vp_ir.Opcode.Add in
  Alcotest.(check (option int)) "dst" (Some 3) (Vp_ir.Operation.writes o);
  Alcotest.(check (list int)) "srcs" [ 1; 2 ] (Vp_ir.Operation.reads o)

let test_operation_make_invalid () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  checkb "missing dst" true (raises (fun () ->
      op ~srcs:[ 1; 2 ] ~id:0 Vp_ir.Opcode.Add));
  checkb "dst on store" true (raises (fun () ->
      op ~dst:1 ~srcs:[ 1; 2 ] ~id:0 Vp_ir.Opcode.Store));
  checkb "bad arity" true (raises (fun () ->
      op ~dst:1 ~srcs:[ 1 ] ~id:0 Vp_ir.Opcode.Add));
  checkb "negative source" true (raises (fun () ->
      op ~dst:1 ~srcs:[ -1; 2 ] ~id:0 Vp_ir.Opcode.Add));
  checkb "negative destination" true (raises (fun () ->
      op ~dst:(-1) ~srcs:[ 1; 2 ] ~id:0 Vp_ir.Opcode.Add))

let test_operation_forms () =
  let o = op ~dst:1 ~srcs:[ 2; 3 ] ~id:5 Vp_ir.Opcode.Add in
  let spec =
    Vp_ir.Operation.with_form o (Vp_ir.Operation.Speculative { sync_bit = 7 })
  in
  checkb "speculative" true (Vp_ir.Operation.is_speculative spec);
  Alcotest.(check (option int)) "sets bit" (Some 7)
    (Vp_ir.Operation.sets_sync_bit spec);
  Alcotest.(check (option int)) "normal sets none" None
    (Vp_ir.Operation.sets_sync_bit o);
  let ldp =
    Vp_ir.Operation.with_form
      (op ~dst:9 ~id:0 Vp_ir.Opcode.Ld_pred)
      (Vp_ir.Operation.Ldpred_of { sync_bit = 2; checked_by = 4 })
  in
  Alcotest.(check (option int)) "ldpred sets bit" (Some 2)
    (Vp_ir.Operation.sets_sync_bit ldp)

(* --- Block --- *)

let simple_block () =
  Vp_ir.Block.of_ops
    [
      op ~dst:10 ~srcs:[ 1; 2 ] ~id:0 Vp_ir.Opcode.Add;
      op ~dst:11 ~srcs:[ 10 ] ~stream:0 ~id:0 Vp_ir.Opcode.Load;
      op ~dst:10 ~srcs:[ 11; 3 ] ~id:0 Vp_ir.Opcode.Sub;
      op ~srcs:[ 1; 10 ] ~id:0 Vp_ir.Opcode.Store;
    ]

let test_block_renumbering () =
  let b = simple_block () in
  checki "size" 4 (Vp_ir.Block.size b);
  Array.iteri
    (fun i (o : Vp_ir.Operation.t) -> checki "id = index" i o.id)
    (Vp_ir.Block.ops b)

let test_block_branch_position () =
  let branch = op ~srcs:[ 1 ] ~id:0 Vp_ir.Opcode.Branch in
  let add = op ~dst:2 ~srcs:[ 1; 1 ] ~id:0 Vp_ir.Opcode.Add in
  checkb "branch not last rejected" true
    (try ignore (Vp_ir.Block.of_ops [ branch; add ]); false
     with Invalid_argument _ -> true);
  checkb "branch last accepted" true
    (try ignore (Vp_ir.Block.of_ops [ add; branch ]); true
     with Invalid_argument _ -> false)

let test_block_live_ins_defs () =
  let b = simple_block () in
  Alcotest.(check (list int)) "live ins" [ 1; 2; 3 ] (Vp_ir.Block.live_ins b);
  Alcotest.(check (list int)) "defs" [ 10; 11 ] (Vp_ir.Block.defs b)

let test_block_loads () =
  let b = simple_block () in
  checki "one load" 1 (List.length (Vp_ir.Block.loads b));
  checki "load id" 1 (List.hd (Vp_ir.Block.loads b)).Vp_ir.Operation.id

let test_block_last_writer () =
  let b = simple_block () in
  Alcotest.(check (option int)) "r10 before op3" (Some 2)
    (Vp_ir.Block.last_writer b ~before:3 10);
  Alcotest.(check (option int)) "r10 before op1" (Some 0)
    (Vp_ir.Block.last_writer b ~before:1 10);
  Alcotest.(check (option int)) "live-in has no writer" None
    (Vp_ir.Block.last_writer b ~before:4 1)

let test_block_map_preserves_ids () =
  let b = simple_block () in
  let b' = Vp_ir.Block.map b (fun o -> Vp_ir.Operation.with_id o 999) in
  Array.iteri
    (fun i (o : Vp_ir.Operation.t) -> checki "id restored" i o.id)
    (Vp_ir.Block.ops b')

(* --- Program --- *)

let test_program () =
  let b = simple_block () in
  let p =
    Vp_ir.Program.create ~name:"p"
      [ { Vp_ir.Program.block = b; count = 3 }; { block = b; count = 1 } ]
  in
  checki "blocks" 2 (Vp_ir.Program.num_blocks p);
  checki "static ops" 8 (Vp_ir.Program.total_operations p);
  checki "dynamic ops" 16 (Vp_ir.Program.total_dynamic_operations p);
  checkb "empty rejected" true
    (try ignore (Vp_ir.Program.create ~name:"e" []); false
     with Invalid_argument _ -> true);
  checkb "negative count rejected" true
    (try
       ignore
         (Vp_ir.Program.create ~name:"n"
            [ { Vp_ir.Program.block = b; count = -1 } ]);
       false
     with Invalid_argument _ -> true)

(* --- Depgraph --- *)

let unit_latency (_ : Vp_ir.Operation.t) = 1

let latency_3_loads (o : Vp_ir.Operation.t) =
  if Vp_ir.Operation.is_load o then 3 else 1

let edge_exists g src dst kind =
  List.exists
    (fun (e : Vp_ir.Depgraph.edge) ->
      e.src = src && e.dst = dst && e.kind = kind)
    (Vp_ir.Depgraph.edges g)

let test_depgraph_flow () =
  let b = simple_block () in
  let g = Vp_ir.Depgraph.build ~latency:latency_3_loads b in
  checkb "0 -> 1 flow" true (edge_exists g 0 1 Vp_ir.Depgraph.Flow);
  checkb "1 -> 2 flow" true (edge_exists g 1 2 Vp_ir.Depgraph.Flow);
  checkb "2 -> 3 flow" true (edge_exists g 2 3 Vp_ir.Depgraph.Flow);
  (* flow delay is producer latency *)
  let e =
    List.find
      (fun (e : Vp_ir.Depgraph.edge) -> e.src = 1 && e.dst = 2 && e.kind = Flow)
      (Vp_ir.Depgraph.edges g)
  in
  checki "load flow delay" 3 e.delay

let test_depgraph_output_anti () =
  let b =
    Vp_ir.Block.of_ops
      [
        op ~dst:1 ~srcs:[ 2; 3 ] ~id:0 Vp_ir.Opcode.Add;
        op ~dst:4 ~srcs:[ 1; 1 ] ~id:0 Vp_ir.Opcode.Sub (* reads r1 *);
        op ~dst:1 ~srcs:[ 3; 3 ] ~id:0 Vp_ir.Opcode.Xor (* rewrites r1 *);
      ]
  in
  let g = Vp_ir.Depgraph.build ~latency:unit_latency b in
  checkb "output 0 -> 2" true (edge_exists g 0 2 Vp_ir.Depgraph.Output);
  checkb "anti 1 -> 2" true (edge_exists g 1 2 Vp_ir.Depgraph.Anti);
  let anti =
    List.find
      (fun (e : Vp_ir.Depgraph.edge) -> e.kind = Anti)
      (Vp_ir.Depgraph.edges g)
  in
  checki "anti delay 0" 0 anti.delay

let test_depgraph_mem () =
  let b =
    Vp_ir.Block.of_ops
      [
        op ~dst:1 ~srcs:[ 9 ] ~stream:0 ~id:0 Vp_ir.Opcode.Load;
        op ~srcs:[ 8; 1 ] ~id:0 Vp_ir.Opcode.Store;
        op ~dst:2 ~srcs:[ 9 ] ~stream:1 ~id:0 Vp_ir.Opcode.Load;
        op ~srcs:[ 7; 2 ] ~id:0 Vp_ir.Opcode.Store;
      ]
  in
  let g = Vp_ir.Depgraph.build ~latency:latency_3_loads b in
  checkb "load -> store mem" true (edge_exists g 0 1 Vp_ir.Depgraph.Mem);
  checkb "store -> load mem" true (edge_exists g 1 2 Vp_ir.Depgraph.Mem);
  checkb "store -> store mem" true (edge_exists g 1 3 Vp_ir.Depgraph.Mem);
  checkb "no load -> load ordering" false (edge_exists g 0 2 Vp_ir.Depgraph.Mem)

let test_depgraph_control () =
  let b =
    Vp_ir.Block.of_ops
      [
        op ~dst:1 ~srcs:[ 2; 3 ] ~id:0 Vp_ir.Opcode.Cmp;
        op ~dst:4 ~srcs:[ 5; 5 ] ~id:0 Vp_ir.Opcode.Add;
        op ~srcs:[ 1 ] ~id:0 Vp_ir.Opcode.Branch;
      ]
  in
  let g = Vp_ir.Depgraph.build ~latency:unit_latency b in
  checkb "independent op pinned before branch" true
    (edge_exists g 1 2 Vp_ir.Depgraph.Control)

let test_depgraph_extra_edges () =
  let b = simple_block () in
  let extra =
    [ { Vp_ir.Depgraph.src = 0; dst = 3; kind = Verify; delay = 5 } ]
  in
  let g = Vp_ir.Depgraph.build ~extra ~latency:unit_latency b in
  checkb "verify edge present" true (edge_exists g 0 3 Vp_ir.Depgraph.Verify);
  checkb "backward extra rejected" true
    (try
       ignore
         (Vp_ir.Depgraph.build
            ~extra:[ { Vp_ir.Depgraph.src = 3; dst = 0; kind = Verify; delay = 1 } ]
            ~latency:unit_latency b);
       false
     with Invalid_argument _ -> true)

let test_depgraph_earliest_and_critical_path () =
  let b = simple_block () in
  let g = Vp_ir.Depgraph.build ~latency:latency_3_loads b in
  let est = Vp_ir.Depgraph.earliest g in
  checki "op0 at 0" 0 est.(0);
  checki "op1 after op0" 1 est.(1);
  checki "op2 after load" 4 est.(2);
  checki "op3 after sub" 5 est.(3);
  (* chain: add(1) load(3) sub(1) store(1) = 6 *)
  checki "critical path length" 6 (Vp_ir.Depgraph.critical_path_length g);
  Alcotest.(check (list int)) "critical path" [ 0; 1; 2; 3 ]
    (Vp_ir.Depgraph.critical_path g)

let test_depgraph_priority () =
  let b = simple_block () in
  let g = Vp_ir.Depgraph.build ~latency:latency_3_loads b in
  let prio = Vp_ir.Depgraph.priority g in
  checki "head priority = path length" 6 prio.(0);
  checki "sink priority = own latency" 1 prio.(3);
  (* priority decreases along the chain *)
  checkb "monotone" true (prio.(0) > prio.(1) && prio.(1) > prio.(2))

let test_depgraph_flow_closure () =
  let b = simple_block () in
  let g = Vp_ir.Depgraph.build ~latency:unit_latency b in
  Alcotest.(check (list int)) "dependents of 0" [ 1; 2; 3 ]
    (Vp_ir.Depgraph.flow_dependents g 0);
  Alcotest.(check (list int)) "sources of 3" [ 0; 1; 2 ]
    (Vp_ir.Depgraph.flow_sources g 3);
  Alcotest.(check (list int)) "sink has no dependents" []
    (Vp_ir.Depgraph.flow_dependents g 3)

(* --- Predication --- *)

let test_guard_basics () =
  let o = op ~dst:1 ~srcs:[ 2; 3 ] ~guard:(9, true) ~id:0 Vp_ir.Opcode.Add in
  Alcotest.(check (list int)) "reads include the guard" [ 9; 2; 3 ]
    (Vp_ir.Operation.reads o);
  Alcotest.(check (list int)) "srcs do not" [ 2; 3 ] o.srcs;
  checkb "negative guard rejected" true
    (try
       ignore (op ~dst:1 ~srcs:[ 2; 3 ] ~guard:(-1, true) ~id:0 Vp_ir.Opcode.Add);
       false
     with Invalid_argument _ -> true)

let test_guard_dependence () =
  (* the guard creates a flow dependence on the predicate producer *)
  let b =
    Vp_ir.Block.of_ops
      [
        op ~dst:5 ~srcs:[ 1; 2 ] ~id:0 Vp_ir.Opcode.Cmp;
        op ~dst:6 ~srcs:[ 3; 4 ] ~guard:(5, true) ~id:0 Vp_ir.Opcode.Add;
      ]
  in
  let g = Vp_ir.Depgraph.build ~latency:unit_latency b in
  checkb "cmp -> guarded op flow edge" true
    (edge_exists g 0 1 Vp_ir.Depgraph.Flow)

let test_guard_asm_roundtrip () =
  let src = "(r5) r6 <- add r1, r2\n(!r5) store r1, r6\n" in
  match Vp_ir.Asm.parse_block src with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok (b, _) ->
      Alcotest.(check (option (pair int bool))) "positive guard" (Some (5, true))
        (Vp_ir.Block.op b 0).guard;
      Alcotest.(check (option (pair int bool))) "negative guard"
        (Some (5, false))
        (Vp_ir.Block.op b 1).guard;
      (match Vp_ir.Asm.parse_block (Vp_ir.Asm.to_string b) with
      | Ok (b2, _) ->
          checkb "round trip" true
            (Array.to_list (Vp_ir.Block.ops b)
            = Array.to_list (Vp_ir.Block.ops b2))
      | Error e -> Alcotest.failf "round trip failed: %s" e)

(* --- Asm (the textual front-end) --- *)

let test_asm_parse () =
  let src =
    "# comment\n0: r16 <- load r1 @s0 !0.85\nr17 <- load r16\n\nr18 <- mul \
     r17, r17\nstore r1, r18\nr19 <- cmp r18, r2\nbranch r19\n"
  in
  match Vp_ir.Asm.parse_block src with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok (b, rates) ->
      checki "six ops" 6 (Vp_ir.Block.size b);
      checkb "rate captured" true (rates = [ (0, 0.85) ]);
      (* implicit stream numbering continues after explicit ids *)
      Alcotest.(check (option int)) "explicit stream" (Some 0)
        (Vp_ir.Block.op b 0).stream;
      Alcotest.(check (option int)) "implicit stream" (Some 1)
        (Vp_ir.Block.op b 1).stream

let test_asm_errors () =
  let expect_error src =
    match Vp_ir.Asm.parse_block src with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected a parse error for %S" src
  in
  expect_error "";
  expect_error "r1 <- frobnicate r2";
  expect_error "r1 <- add r2" (* arity *);
  expect_error "add r2, r3" (* missing destination *);
  expect_error "r1 <- store r2, r3" (* store writes nothing *);
  expect_error "r1 <- add r2, r3 @s4" (* stream on a non-load *);
  expect_error "branch r1\nr2 <- add r3, r4" (* branch not last *);
  expect_error "r-1 <- add r1, r2" (* negative destination *)

let test_asm_program () =
  let src =
    "r1 <- add r2, r3\nlabel hot * 10:\nr16 <- load r1 !0.7\nr17 <- mul r16, \
     r16\nlabel cold:\nr20 <- load r4\nstore r4, r20\n"
  in
  match Vp_ir.Asm.parse_program src with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok (p, rates) ->
      checki "three blocks" 3 (Vp_ir.Program.num_blocks p);
      Alcotest.(check string) "implicit entry" "entry"
        (Vp_ir.Block.label (Vp_ir.Program.nth p 0).block);
      checki "entry count" 1 (Vp_ir.Program.nth p 0).count;
      checki "hot count" 10 (Vp_ir.Program.nth p 1).count;
      Alcotest.(check string) "cold label" "cold"
        (Vp_ir.Block.label (Vp_ir.Program.nth p 2).block);
      (* stream numbering spans blocks *)
      Alcotest.(check (option int)) "first load stream" (Some 0)
        (Vp_ir.Block.op (Vp_ir.Program.nth p 1).block 0).stream;
      Alcotest.(check (option int)) "second load stream" (Some 1)
        (Vp_ir.Block.op (Vp_ir.Program.nth p 2).block 0).stream;
      (* program-wide rate index: block 1, op 0 *)
      checkb "rate key" true (rates = [ (1000, 0.7) ])

let test_asm_program_errors () =
  let expect_error src =
    match Vp_ir.Asm.parse_program src with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected a parse error for %S" src
  in
  expect_error "";
  expect_error "label a:\nlabel b:" (* no operations at all *);
  expect_error "label a * -3:\nr1 <- add r2, r3" (* negative count parses as ops and fails *)

let test_asm_parse_file () =
  let path = Filename.temp_file "vliwvp" ".vasm" in
  let oc = open_out path in
  output_string oc "r1 <- add r2, r3\nr4 <- load r1\n";
  close_out oc;
  (match Vp_ir.Asm.parse_file path with
  | Ok (b, _) ->
      checki "two ops" 2 (Vp_ir.Block.size b);
      checkb "label from basename" true
        (String.length (Vp_ir.Block.label b) > 0)
  | Error e -> Alcotest.failf "parse_file failed: %s" e);
  Sys.remove path

let test_asm_roundtrip_example () =
  let b = Vliw_vp.Example.block in
  match Vp_ir.Asm.parse_block (Vp_ir.Asm.to_string b) with
  | Error e -> Alcotest.failf "round trip failed: %s" e
  | Ok (b2, _) ->
      checkb "round trip" true
        (Array.to_list (Vp_ir.Block.ops b) = Array.to_list (Vp_ir.Block.ops b2))

let prop_asm_roundtrip =
  QCheck.Test.make ~name:"asm round-trips every generated block" ~count:150
    QCheck.(pair int (int_bound 7))
    (fun (seed, pick) ->
      let model =
        List.nth Vp_workload.Spec_model.all
          (pick mod List.length Vp_workload.Spec_model.all)
      in
      let block, _ =
        Vp_workload.Block_gen.generate model
          ~rng:(Vp_util.Rng.create seed)
          ~stream_base:0 ~label:"asm"
      in
      match Vp_ir.Asm.parse_block (Vp_ir.Asm.to_string block) with
      | Error _ -> false
      | Ok (b2, _) ->
          Array.to_list (Vp_ir.Block.ops block)
          = Array.to_list (Vp_ir.Block.ops b2))

(* --- Encoding (the Figure-4 instruction formats) --- *)

let roundtrip_op (o : Vp_ir.Operation.t) =
  let decoded, rest =
    Vp_ir.Encoding.decode_op ~id:o.id (Vp_ir.Encoding.encode_op o)
  in
  checkb "no trailing words" true (rest = []);
  let strip (x : Vp_ir.Operation.t) = { x with stream = None } in
  checkb "round trip" true (strip decoded = strip o)

let test_guard_encoding_roundtrip () =
  roundtrip_op (op ~dst:1 ~srcs:[ 2; 3 ] ~guard:(7, true) ~id:0 Vp_ir.Opcode.Add);
  roundtrip_op (op ~srcs:[ 1; 2 ] ~guard:(254, false) ~id:0 Vp_ir.Opcode.Store)

let test_encoding_forms () =
  roundtrip_op (op ~dst:3 ~srcs:[ 1; 2 ] ~id:4 Vp_ir.Opcode.Add);
  roundtrip_op (op ~srcs:[ 1; 2 ] ~id:0 Vp_ir.Opcode.Store);
  roundtrip_op (op ~srcs:[ 9 ] ~id:1 Vp_ir.Opcode.Branch);
  roundtrip_op
    (Vp_ir.Operation.with_form
       (op ~dst:254 ~srcs:[ 0 ] ~stream:7 ~id:2 Vp_ir.Opcode.Load)
       Vp_ir.Operation.Non_speculative);
  roundtrip_op
    (Vp_ir.Operation.with_form
       (op ~dst:30 ~id:0 Vp_ir.Opcode.Ld_pred)
       (Vp_ir.Operation.Ldpred_of { sync_bit = 63; checked_by = 255 }));
  roundtrip_op
    (Vp_ir.Operation.with_form
       (op ~dst:5 ~srcs:[ 6; 7 ] ~id:3 Vp_ir.Opcode.Mul)
       (Vp_ir.Operation.Speculative { sync_bit = 11 }));
  roundtrip_op
    (Vp_ir.Operation.with_form
       (op ~dst:8 ~srcs:[ 9 ] ~stream:0 ~id:5 Vp_ir.Opcode.Load)
       (Vp_ir.Operation.Check { pred_bit = 0; spec_bits = [ 1; 5; 63 ] }))

let test_encoding_sizes () =
  let plain = op ~dst:1 ~srcs:[ 2; 3 ] ~id:0 Vp_ir.Opcode.Add in
  checki "plain op is one word" 1 (List.length (Vp_ir.Encoding.encode_op plain));
  let check =
    Vp_ir.Operation.with_form
      (op ~dst:1 ~srcs:[ 2 ] ~stream:0 ~id:0 Vp_ir.Opcode.Load)
      (Vp_ir.Operation.Check { pred_bit = 0; spec_bits = [ 1 ] })
  in
  checki "check is two words" 2 (List.length (Vp_ir.Encoding.encode_op check));
  checki "nop instruction is one header word" 8
    (Vp_ir.Encoding.instruction_bytes []);
  checki "two plain ops" 24 (Vp_ir.Encoding.instruction_bytes [ plain; plain ])

let test_encoding_limits () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  checkb "register 255 rejected" true (raises (fun () ->
      Vp_ir.Encoding.encode_op (op ~dst:255 ~srcs:[ 1; 2 ] ~id:0 Vp_ir.Opcode.Add)));
  checkb "sync bit 64 rejected" true (raises (fun () ->
      Vp_ir.Encoding.encode_op
        (Vp_ir.Operation.with_form
           (op ~dst:1 ~srcs:[ 2; 3 ] ~id:0 Vp_ir.Opcode.Add)
           (Vp_ir.Operation.Speculative { sync_bit = 64 }))));
  checkb "wait bit 32 rejected" true (raises (fun () ->
      Vp_ir.Encoding.encode_instruction
        ~wait_mask:(Vp_util.Bitset.of_list [ 32 ])
        []))

let test_encoding_instruction_roundtrip () =
  let ops =
    [
      op ~dst:1 ~srcs:[ 2; 3 ] ~id:0 Vp_ir.Opcode.Add;
      Vp_ir.Operation.with_form
        (op ~dst:4 ~srcs:[ 1 ] ~stream:0 ~id:1 Vp_ir.Opcode.Load)
        (Vp_ir.Operation.Check { pred_bit = 2; spec_bits = [ 3; 4 ] });
      Vp_ir.Operation.with_form
        (op ~dst:5 ~srcs:[ 4; 4 ] ~id:2 Vp_ir.Opcode.Mul)
        (Vp_ir.Operation.Speculative { sync_bit = 3 });
    ]
  in
  let mask = Vp_util.Bitset.of_list [ 0; 7; 31 ] in
  let words = Vp_ir.Encoding.encode_instruction ~wait_mask:mask ops in
  let mask', ops' = Vp_ir.Encoding.decode_instruction words in
  checkb "mask survives" true (Vp_util.Bitset.equal mask mask');
  checki "op count" (List.length ops) (List.length ops');
  List.iter2
    (fun (a : Vp_ir.Operation.t) (b : Vp_ir.Operation.t) ->
      checkb "op survives" true ({ a with stream = None } = b))
    ops ops'

(* Property tests over generated blocks. *)

let random_block_gen =
  QCheck.Gen.(
    map
      (fun (seed, pick) ->
        let models = Vp_workload.Spec_model.all in
        let model = List.nth models (pick mod List.length models) in
        let rng = Vp_util.Rng.create seed in
        fst
          (Vp_workload.Block_gen.generate model ~rng ~stream_base:0
             ~label:"prop"))
      (pair int (int_bound 7)))

let arbitrary_block =
  QCheck.make ~print:(Format.asprintf "%a" Vp_ir.Block.pp) random_block_gen

let prop_edges_forward =
  QCheck.Test.make ~name:"dependence edges always go forward" ~count:100
    arbitrary_block (fun b ->
      let g = Vp_ir.Depgraph.build ~latency:latency_3_loads b in
      List.for_all
        (fun (e : Vp_ir.Depgraph.edge) -> e.src < e.dst && e.delay >= 0)
        (Vp_ir.Depgraph.edges g))

let prop_earliest_respects_edges =
  QCheck.Test.make ~name:"earliest start respects every edge delay"
    ~count:100 arbitrary_block (fun b ->
      let g = Vp_ir.Depgraph.build ~latency:latency_3_loads b in
      let est = Vp_ir.Depgraph.earliest g in
      List.for_all
        (fun (e : Vp_ir.Depgraph.edge) -> est.(e.dst) >= est.(e.src) + e.delay)
        (Vp_ir.Depgraph.edges g))

let prop_critical_path_consistent =
  QCheck.Test.make
    ~name:"critical path realizes the critical path length" ~count:100
    arbitrary_block (fun b ->
      let g = Vp_ir.Depgraph.build ~latency:latency_3_loads b in
      let path = Vp_ir.Depgraph.critical_path g in
      let prio = Vp_ir.Depgraph.priority g in
      match path with
      | [] -> Vp_ir.Block.size b = 0
      | first :: _ ->
          prio.(first) = Vp_ir.Depgraph.critical_path_length g
          && List.sort compare path = path)

let prop_priority_at_least_latency =
  QCheck.Test.make ~name:"priority >= own latency" ~count:100 arbitrary_block
    (fun b ->
      let g = Vp_ir.Depgraph.build ~latency:latency_3_loads b in
      let prio = Vp_ir.Depgraph.priority g in
      Array.for_all Fun.id
        (Array.init (Vp_ir.Block.size b) (fun i ->
             prio.(i) >= Vp_ir.Depgraph.latency g i)))

(* --- Depgraph against the Hashtbl oracle (test/depgraph_ref.ml) --- *)

(* Hand-made blocks for the builder's corner cases. *)
let corner_blocks =
  let module O = Vp_ir.Opcode in
  let ld ?guard dst addr =
    op ~dst ~srcs:[ addr ] ?guard ~stream:0 ~id:0 O.Load
  in
  let st addr v = op ~srcs:[ addr; v ] ~id:0 O.Store in
  let bin ?guard o dst a b = op ~dst ~srcs:[ a; b ] ?guard ~id:0 o in
  List.map (Vp_ir.Block.of_ops ~label:"corner")
    [
      (* repeated sources, and operations reading the register they write *)
      [ bin O.Add 1 2 2; bin O.Add 1 1 1; bin O.Mul 3 1 1; bin O.Sub 1 3 1;
        bin O.Add 3 3 3 ];
      (* guards: the guard register is read like a source *)
      [ bin O.Cmp 5 1 2; bin O.Add 6 1 2 ~guard:(5, true);
        bin O.Mul 6 6 1 ~guard:(5, false); bin O.Add 5 6 6 ~guard:(5, true);
        ld 7 6 ~guard:(5, false); bin O.Add 8 7 5 ];
      (* runs of stores and loads *)
      [ ld 1 0; ld 2 0; st 0 1; st 0 2; ld 3 0; st 1 3; st 2 3; ld 4 1;
        ld 5 2; ld 6 3; st 4 5 ];
      (* a final branch pinned behind everything *)
      [ ld 1 0; bin O.Add 2 1 1; st 0 2; bin O.Cmp 3 2 1;
        op ~srcs:[ 3 ] ~id:0 O.Branch ];
      (* the smallest and a huge register side by side *)
      [ ld 999999999 0; bin O.Add 0 999999999 0; st 0 999999999;
        bin O.Mul 999999999 0 999999999 ];
    ]

let block_of_choice = function
  | `Generated (seed, pick) ->
      let models = Vp_workload.Spec_model.all in
      let model = List.nth models (pick mod List.length models) in
      fst
        (Vp_workload.Block_gen.generate model ~rng:(Vp_util.Rng.create seed)
           ~stream_base:0 ~label:"prop")
  | `Corner k -> List.nth corner_blocks k

(* [extra] edges for [b]: copies of some of the block's own edges (with a
   different delay, which must lose to the first), random forward edges of
   every kind, then repeats of some of those. *)
let extra_edges b rng =
  let n = Vp_ir.Block.size b in
  if n < 2 then []
  else begin
    let own = Depgraph_ref.build ~latency:latency_3_loads b in
    let copies =
      List.concat_map
        (fun es ->
          List.filter_map
            (fun (e : Vp_ir.Depgraph.edge) ->
              if Random.State.int rng 3 = 0 then
                Some { e with delay = e.delay + 1 + Random.State.int rng 3 }
              else None)
            es)
        (Array.to_list own.preds)
    in
    let kinds =
      Vp_ir.Depgraph.[| Flow; Anti; Output; Mem; Control; Verify |]
    in
    let fresh =
      List.init (Random.State.int rng 8) (fun _ ->
          let dst = 1 + Random.State.int rng (n - 1) in
          {
            Vp_ir.Depgraph.src = Random.State.int rng dst;
            dst;
            kind = kinds.(Random.State.int rng (Array.length kinds));
            delay = Random.State.int rng 5;
          })
    in
    let repeats =
      List.filter_map
        (fun (e : Vp_ir.Depgraph.edge) ->
          if Random.State.bool rng then Some { e with delay = e.delay + 2 }
          else None)
        (copies @ fresh)
    in
    let mixed = copies @ fresh @ repeats in
    (* reversed half the time, so repeats also come before their originals *)
    if Random.State.bool rng then List.rev mixed else mixed
  end

let prop_depgraph_matches_oracle =
  QCheck.Test.make ~name:"build = Hashtbl oracle, edge order included"
    ~count:300
    QCheck.(
      pair
        (oneof
           [
             map (fun sp -> `Generated sp) (pair int (int_bound 7));
             map (fun k -> `Corner k)
               (int_bound (List.length corner_blocks - 1));
           ])
        int)
    (fun (choice, seed) ->
      let b = block_of_choice choice in
      let rng = Random.State.make [| seed |] in
      List.for_all
        (fun extra ->
          let g = Vp_ir.Depgraph.build ~extra ~latency:latency_3_loads b in
          let r = Depgraph_ref.build ~extra ~latency:latency_3_loads b in
          List.for_all
            (fun i ->
              Vp_ir.Depgraph.preds g i = r.preds.(i)
              && Vp_ir.Depgraph.succs g i = r.succs.(i)
              && Vp_ir.Depgraph.latency g i = r.lat.(i))
            (List.init (Vp_ir.Block.size b) Fun.id))
        [ []; extra_edges b rng ])

(* The per-register tables are sized by the operands a block names: a
   register-number-sized table would need gigabytes here. Counted with
   [Gc.allocated_bytes], which (unlike a [Gc.minor_words] delta) also sees
   an array large enough to be allocated straight in the major heap. A
   single delta can also take in a runtime accounting step the size of
   the minor heap, so each build starts on an empty minor heap, which a
   few hundred bytes cannot fill, and the smallest of five deltas
   counts. *)
let test_depgraph_alloc_bounded () =
  let b = List.nth corner_blocks 4 in
  checki "four operations" 4 (Vp_ir.Block.size b);
  let build () = Vp_ir.Depgraph.build ~latency:latency_3_loads b in
  ignore (build ());
  let allocated () =
    Gc.minor ();
    let before = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity (build ()));
    Gc.allocated_bytes () -. before
  in
  let bytes =
    List.fold_left Float.min infinity (List.init 5 (fun _ -> allocated ()))
  in
  if bytes >= 65536.0 then
    Alcotest.failf "building a 4-op block allocated %.0f bytes" bytes

let test_depgraph_with_block () =
  let b = List.nth corner_blocks 2 in
  let g = Vp_ir.Depgraph.build ~latency:latency_3_loads b in
  let reformed =
    Vp_ir.Block.map b (fun o ->
        if Vp_ir.Operation.is_load o then
          Vp_ir.Operation.with_form o
            (Check { pred_bit = 0; spec_bits = [ 1; 2 ] })
        else Vp_ir.Operation.with_form o Non_speculative)
  in
  let g' = Vp_ir.Depgraph.with_block g reformed in
  checkb "new block" true (Vp_ir.Depgraph.block g' == reformed);
  for i = 0 to Vp_ir.Block.size b - 1 do
    checkb "same preds" true
      (Vp_ir.Depgraph.preds g' i = Vp_ir.Depgraph.preds g i);
    checkb "same succs" true
      (Vp_ir.Depgraph.succs g' i = Vp_ir.Depgraph.succs g i);
    checki "same latency" (Vp_ir.Depgraph.latency g i)
      (Vp_ir.Depgraph.latency g' i)
  done;
  let raises b' =
    try
      ignore (Vp_ir.Depgraph.with_block g b');
      false
    with Invalid_argument _ -> true
  in
  checkb "changed srcs rejected" true
    (raises
       (Vp_ir.Block.map b (fun o ->
            if o.id = 2 then { o with srcs = [ 0; 2 ] } else o)));
  checkb "changed size rejected" true
    (raises
       (Vp_ir.Block.of_ops
          (List.tl (Array.to_list (Vp_ir.Block.ops b)))))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "vp_ir"
    [
      ( "opcode",
        [
          tc "consistency" test_opcode_consistency;
          tc "classes" test_opcode_classes;
        ] );
      ( "operation",
        [
          tc "make valid" test_operation_make_valid;
          tc "make invalid" test_operation_make_invalid;
          tc "forms" test_operation_forms;
        ] );
      ( "block",
        [
          tc "renumbering" test_block_renumbering;
          tc "branch position" test_block_branch_position;
          tc "live-ins and defs" test_block_live_ins_defs;
          tc "loads" test_block_loads;
          tc "last writer" test_block_last_writer;
          tc "map preserves ids" test_block_map_preserves_ids;
        ] );
      ("program", [ tc "create and totals" test_program ]);
      ( "predication",
        [
          tc "basics" test_guard_basics;
          tc "dependence" test_guard_dependence;
          tc "encoding round trip" test_guard_encoding_roundtrip;
          tc "asm round trip" test_guard_asm_roundtrip;
        ] );
      ( "asm",
        [
          tc "parse" test_asm_parse;
          tc "errors" test_asm_errors;
          tc "parse file" test_asm_parse_file;
          tc "round trip (example)" test_asm_roundtrip_example;
          tc "program" test_asm_program;
          tc "program errors" test_asm_program_errors;
          QCheck_alcotest.to_alcotest prop_asm_roundtrip;
        ] );
      ( "encoding",
        [
          tc "forms round trip" test_encoding_forms;
          tc "sizes" test_encoding_sizes;
          tc "limits" test_encoding_limits;
          tc "instruction round trip" test_encoding_instruction_roundtrip;
        ] );
      ( "depgraph",
        [
          tc "flow edges" test_depgraph_flow;
          tc "output and anti edges" test_depgraph_output_anti;
          tc "memory ordering" test_depgraph_mem;
          tc "control edges" test_depgraph_control;
          tc "extra edges" test_depgraph_extra_edges;
          tc "earliest / critical path" test_depgraph_earliest_and_critical_path;
          tc "priority" test_depgraph_priority;
          tc "flow closure" test_depgraph_flow_closure;
          QCheck_alcotest.to_alcotest prop_edges_forward;
          QCheck_alcotest.to_alcotest prop_earliest_respects_edges;
          QCheck_alcotest.to_alcotest prop_critical_path_consistent;
          QCheck_alcotest.to_alcotest prop_priority_at_least_latency;
          QCheck_alcotest.to_alcotest prop_depgraph_matches_oracle;
          tc "allocation bounded by operands" test_depgraph_alloc_bounded;
          tc "with_block" test_depgraph_with_block;
        ] );
    ]
