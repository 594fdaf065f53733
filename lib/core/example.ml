let machine = Vp_machine.Descr.example_machine

(* Operation i (1-based, as the paper numbers them) writes register i;
   registers 20..27 are live-ins. Operation ids in the block are 0-based,
   so "operation 4" of the paper is id 3 here. *)
let block =
  let op = Vp_ir.Operation.make in
  Vp_ir.Block.of_ops ~label:"figure2"
    [
      op ~dst:1 ~srcs:[ 20; 21 ] ~id:0 Vp_ir.Opcode.Add;
      op ~dst:2 ~srcs:[ 1; 22 ] ~id:1 Vp_ir.Opcode.Add;
      op ~dst:3 ~srcs:[ 26 ] ~id:2 Vp_ir.Opcode.Move;
      op ~dst:4 ~srcs:[ 2 ] ~stream:0 ~id:3 Vp_ir.Opcode.Load;
      op ~dst:5 ~srcs:[ 4; 4 ] ~id:4 Vp_ir.Opcode.Mul;
      op ~dst:6 ~srcs:[ 5; 23 ] ~id:5 Vp_ir.Opcode.Add;
      op ~dst:7 ~srcs:[ 24 ] ~stream:1 ~id:6 Vp_ir.Opcode.Load;
      op ~dst:8 ~srcs:[ 6; 7 ] ~id:7 Vp_ir.Opcode.Mul;
      op ~dst:9 ~srcs:[ 8; 3 ] ~id:8 Vp_ir.Opcode.Add;
      op ~dst:10 ~srcs:[ 9; 26 ] ~id:9 Vp_ir.Opcode.Add;
      op ~dst:11 ~srcs:[ 10; 27 ] ~id:10 Vp_ir.Opcode.Add;
    ]

let policy =
  {
    Vp_vspec.Policy.default with
    critical_path_only = false;
    (* The paper's scheduler chooses not to speculate operations 10 and 11
       (ids 9 and 10). *)
    non_speculative = [ 9; 10 ];
  }

let rate (op : Vp_ir.Operation.t) =
  if Vp_ir.Operation.is_load op then Some 0.9 else None

let load_values = function
  | 3 -> 111 (* the r4 load *)
  | 6 -> 222 (* the r7 load *)
  | i -> invalid_arg (Printf.sprintf "Example.load_values: op %d" i)

let spec () =
  match Vp_vspec.Transform.apply ~policy machine ~rate block with
  | Vp_vspec.Transform.Speculated sb -> sb
  | Vp_vspec.Transform.Unchanged reason ->
      failwith ("Example.spec: transform declined: " ^ reason)

let reference () =
  Vp_engine.Reference.run block ~load_values
    ~live_in:Vp_engine.Reference.live_in

type case = {
  label : string;
  outcomes : Vp_engine.Scenario.t;
  result : Vp_engine.Dual_engine.result;
  recovery_cycles : int;
}

let cases () =
  let sb = spec () in
  let reference = reference () in
  let recovery = Vp_baseline.Static_recovery.build machine sb in
  (* Prediction 0 is the r4 load, prediction 1 the r7 load (program
     order). *)
  let case label outcomes =
    {
      label;
      outcomes;
      result =
        Vp_engine.Dual_engine.run sb ~reference
          ~live_in:Vp_engine.Reference.live_in ~outcomes;
      recovery_cycles = Vp_baseline.Static_recovery.cycles recovery ~outcomes;
    }
  in
  [
    case "(b) both predictions correct" [| true; true |];
    case "(c) r7 mispredicted" [| true; false |];
    case "(d) r4 mispredicted" [| false; true |];
    case "(e) both mispredicted" [| false; false |];
  ]

let figure7 () =
  let sb = spec () in
  let reference = reference () in
  let observer, trace = Vp_engine.Engine_trace.collector () in
  (* Figure 7's scenario: r4 correct, r7 mispredicted — case (c). *)
  let (_ : Vp_engine.Dual_engine.result) =
    Vp_engine.Dual_engine.run ~observer sb ~reference
      ~live_in:Vp_engine.Reference.live_in ~outcomes:[| true; false |]
  in
  trace ()

let original_cycles () =
  Vp_sched.Schedule.length (Vp_sched.List_scheduler.schedule_block machine block)

let describe ppf () =
  let sb = spec () in
  Format.fprintf ppf
    "@[<v>The paper's worked example (Figures 2/3, reconstructed — the \
     original figure was lost@ in OCR; see DESIGN.md).@ @ %a@ %a@ @ "
    Vp_sched.Schedule.pp sb.original_schedule Vp_sched.Schedule.pp sb.schedule;
  Format.fprintf ppf "Predictions:@ ";
  Array.iter
    (fun (p : Vp_vspec.Spec_block.predicted_load) ->
      Format.fprintf ppf
        "  load op %d -> LdPred %d (bit %d, predicted register r%d), check \
         %d@ "
        p.orig_load_id p.ldpred_id p.sync_bit p.pred_reg p.check_id)
    sb.predicted;
  Format.fprintf ppf "@ Original schedule: %d cycles.@ " (original_cycles ());
  List.iter
    (fun c ->
      Format.fprintf ppf
        "%s %a: dual-engine %d cycles (%d stalls, %d flushed, %d \
         recomputed); static recovery %d cycles@ "
        c.label Vp_engine.Scenario.pp c.outcomes
        c.result.Vp_engine.Dual_engine.cycles
        c.result.Vp_engine.Dual_engine.stall_cycles
        c.result.Vp_engine.Dual_engine.flushed
        c.result.Vp_engine.Dual_engine.recomputed c.recovery_cycles)
    (cases ());
  Format.fprintf ppf "@]"
