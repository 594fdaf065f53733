(* Reference selection readings for [Vp_vspec.Transform]: the load
   selection and the earliest issue times as the transform computed them
   before it read the baseline graph through a predicted-load mask. Each
   growth round of [select], and [est_virtual], rebuilds the dependence
   graph of a virtual block in which every predicted load is a
   dependence-free [Move] of its destination. Kept as the oracle for
   test_vspec.ml's equivalence properties: [apply] is the transform run
   with these readings. *)

let flow_succs graph i =
  List.filter
    (fun (e : Vp_ir.Depgraph.edge) -> e.kind = Flow)
    (Vp_ir.Depgraph.succs graph i)

(* The largest register the block names (0 for none). *)
let max_reg block =
  Array.fold_left
    (fun acc (op : Vp_ir.Operation.t) ->
      List.fold_left Int.max
        (Int.max acc (Option.value ~default:0 op.dst))
        op.srcs)
    0 (Vp_ir.Block.ops block)

(* [block] with each operation [replaced] turned into a dependence-free
   unit-latency producer of its destination: the selection-time stand-in
   for a predicted load, whose consumers no longer wait for it. *)
let virtual_block block ~replaced =
  (* A register no operation writes: reading it creates no dependence. *)
  let unwritten_reg = max_reg block + 1 in
  Vp_ir.Block.map block (fun op ->
      if replaced.(op.id) then
        Vp_ir.Operation.make
          ~dst:(Option.get (Vp_ir.Operation.writes op))
          ~srcs:[ unwritten_reg ] ~id:op.id Vp_ir.Opcode.Move
      else op)

let speculable policy block (op : Vp_ir.Operation.t) =
  (not (Vp_ir.Opcode.has_side_effect op.opcode))
  && (op.guard = None
     ||
     match Vp_ir.Operation.writes op with
     | Some r -> Vp_ir.Block.last_writer block ~before:op.id r = None
     | None -> false)
  && not (List.mem op.id policy.Vp_vspec.Policy.non_speculative)

let select policy ~latency graph ~rate block =
  let n = Vp_ir.Block.size block in
  let priority = Vp_ir.Depgraph.priority graph in
  let restorable (op : Vp_ir.Operation.t) =
    op.guard = None
    ||
    match Vp_ir.Operation.writes op with
    | Some r -> Vp_ir.Block.last_writer block ~before:op.id r = None
    | None -> false
  in
  let qualifies (op : Vp_ir.Operation.t) =
    Vp_ir.Operation.is_load op && op.stream <> None && restorable op
    && (match rate op with
       | Some r -> r >= policy.Vp_vspec.Policy.threshold
       | None -> false)
    &&
    let dependents =
      List.filter
        (fun (e : Vp_ir.Depgraph.edge) ->
          speculable policy block (Vp_ir.Block.op block e.dst))
        (flow_succs graph op.id)
    in
    List.length dependents >= policy.Vp_vspec.Policy.min_dependents
  in
  let cap candidates =
    candidates
    |> List.sort (fun a b ->
           match compare priority.(b) priority.(a) with
           | 0 -> compare a b
           | c -> c)
    |> List.filteri (fun rank _ ->
           rank < policy.Vp_vspec.Policy.max_predictions)
    |> List.sort compare
  in
  let qualifying = Array.map qualifies (Vp_ir.Block.ops block) in
  if not policy.Vp_vspec.Policy.critical_path_only then
    cap (List.filter (fun i -> qualifying.(i)) (List.init n Fun.id))
  else begin
    let in_chosen = Array.make n false in
    let rec grow chosen =
      if List.length chosen >= policy.Vp_vspec.Policy.max_predictions then
        chosen
      else begin
        let g =
          Vp_ir.Depgraph.build ~latency
            (virtual_block block ~replaced:in_chosen)
        in
        let path = Vp_ir.Depgraph.critical_path g in
        let fresh =
          List.filter (fun i -> (not in_chosen.(i)) && qualifying.(i)) path
        in
        match fresh with
        | [] -> chosen
        | _ ->
            List.iter (fun i -> in_chosen.(i) <- true) fresh;
            grow (chosen @ fresh)
      end
    in
    cap (grow [])
  end

let est_virtual ~latency _graph block sel =
  Vp_ir.Depgraph.earliest
    (Vp_ir.Depgraph.build ~latency (virtual_block block ~replaced:sel))

let readings = { Vp_vspec.Transform.select; earliest_predicted = est_virtual }
let apply = Vp_vspec.Transform.apply_with readings
