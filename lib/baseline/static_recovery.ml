type comp_block = {
  prediction : int;
  op_ids : int list;
  schedule : Vp_sched.Schedule.t;
}

type t = { spec : Vp_vspec.Spec_block.t; comp_blocks : comp_block array }

let build descr (sb : Vp_vspec.Spec_block.t) =
  let ops = Vp_ir.Block.ops sb.block in
  let comp_of k =
    let op_ids =
      Array.to_list ops
      |> List.filter_map (fun (op : Vp_ir.Operation.t) ->
             if
               Vp_ir.Operation.is_speculative op
               && List.mem k sb.pred_deps.(op.id)
             then Some op.id
             else None)
    in
    (* The compensation block re-executes the speculated operations in
       program order; registers produced outside it (the corrected load
       value, verified operands) are live-ins. Forms are stripped — on the
       [4]-style machine this is ordinary VLIW code. *)
    let body =
      List.map
        (fun i -> Vp_ir.Operation.with_form ops.(i) Vp_ir.Operation.Normal)
        op_ids
    in
    let label =
      Printf.sprintf "%s.comp%d" (Vp_ir.Block.label sb.block) k
    in
    let block = Vp_ir.Block.of_ops ~label body in
    {
      prediction = k;
      op_ids;
      schedule = Vp_sched.List_scheduler.schedule_block descr block;
    }
  in
  {
    spec = sb;
    comp_blocks =
      Array.init (Vp_vspec.Spec_block.num_predictions sb) comp_of;
  }

let spec t = t.spec
let comp_blocks t = Array.copy t.comp_blocks

let compensation_cycles ?(branch_penalty = 2) t ~outcomes =
  if Array.length outcomes <> Array.length t.comp_blocks then
    invalid_arg "Static_recovery: outcomes length mismatch";
  let total = ref 0 in
  Array.iteri
    (fun k correct ->
      if not correct then
        total :=
          !total + (2 * branch_penalty)
          + Vp_sched.Schedule.length t.comp_blocks.(k).schedule)
    outcomes;
  !total

let cycles ?branch_penalty t ~outcomes =
  Vp_sched.Schedule.length t.spec.schedule
  + compensation_cycles ?branch_penalty t ~outcomes

let main_code_instructions t =
  Vp_sched.Schedule.num_instructions t.spec.schedule

let compensation_instructions t =
  Array.fold_left
    (fun acc cb -> acc + Vp_sched.Schedule.num_instructions cb.schedule)
    0 t.comp_blocks
