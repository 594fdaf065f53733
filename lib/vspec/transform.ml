type outcome =
  | Speculated of Spec_block.t
  | Unchanged of string

(* Raised internally when a prediction turns out to be unschedulable (its
   check cannot be ordered before a stalling consumer); the offending load is
   dropped from the selection and the transform restarts. *)
exception Drop_prediction of int

let flow_preds graph i =
  List.filter
    (fun (e : Vp_ir.Depgraph.edge) -> e.kind = Flow)
    (Vp_ir.Depgraph.preds graph i)

let flow_succs graph i =
  List.filter
    (fun (e : Vp_ir.Depgraph.edge) -> e.kind = Flow)
    (Vp_ir.Depgraph.succs graph i)

(* The largest register the block names (0 for none): registers above it
   are free for LdPred destinations and dependence-free virtual reads. *)
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

(* A guarded operation may be speculated only when its destination has no
   earlier writer in the block: the engines capture the destination's old
   value at issue so recovery can *restore* it when the operation turns out
   predicated off, and a first-write destination's old value (a live-in) is
   always correct at capture time. *)
let speculable policy block (op : Vp_ir.Operation.t) =
  (not (Vp_ir.Opcode.has_side_effect op.opcode))
  && (op.guard = None
     ||
     match Vp_ir.Operation.writes op with
     | Some r -> Vp_ir.Block.last_writer block ~before:op.id r = None
     | None -> false)
  && not (List.mem op.id policy.Policy.non_speculative)

(* Candidate selection: loads on the longest critical path whose profiled
   rate meets the threshold and that have speculable dependents. Selection
   iterates with the path: once a load is (virtually) predicted, its
   consumers no longer wait for it, the critical path moves, and newly
   exposed loads become candidates — this is how the paper's rule
   ("predicting loads on the longest critical path for each block")
   interacts with scheduling. The virtual prediction replaces the load by a
   dependence-free unit-latency producer, the selection-time approximation
   of its LdPred. *)
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
       | Some r -> r >= policy.Policy.threshold
       | None -> false)
    &&
    let dependents =
      List.filter
        (fun (e : Vp_ir.Depgraph.edge) ->
          speculable policy block (Vp_ir.Block.op block e.dst))
        (flow_succs graph op.id)
    in
    List.length dependents >= policy.Policy.min_dependents
  in
  let cap candidates =
    candidates
    |> List.sort (fun a b ->
           match compare priority.(b) priority.(a) with
           | 0 -> compare a b
           | c -> c)
    |> List.filteri (fun rank _ -> rank < policy.Policy.max_predictions)
    |> List.sort compare
  in
  let qualifying = Array.map qualifies (Vp_ir.Block.ops block) in
  if not policy.Policy.critical_path_only then
    cap (List.filter (fun i -> qualifying.(i)) (List.init n Fun.id))
  else begin
    let in_chosen = Array.make n false in
    let rec grow chosen =
      if List.length chosen >= policy.Policy.max_predictions then chosen
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

(* One full transform attempt for a fixed selection. Raises
   [Drop_prediction] when a prediction proves unschedulable. *)
let build_spec policy descr orig_graph orig_sched ~rate block selection =
  let latency = Vp_machine.Descr.latency descr in
  let n = Vp_ir.Block.size block in
  let selected = Array.of_list selection in
  let num_sel = Array.length selected in
  let sel = Array.make n false in
  let k_of = Array.make n (-1) in
  Array.iteri
    (fun k i ->
      sel.(i) <- true;
      k_of.(i) <- k)
    selected;
  (* Classify: which operations consume predicted values, and which of
     those may be speculated. The Synchronization register has
     [max_sync_bits] bits — one per LdPred plus one per speculative
     operation — so speculation stops (later dependents become
     non-speculative consumers) once the bit budget is exhausted. Program
     order allocates bits to the operations nearest the predicted loads,
     the ones on the shortened critical path. *)
  let spec_budget = policy.Policy.max_sync_bits - num_sel in
  if spec_budget < 1 then
    raise (Drop_prediction selected.(num_sel - 1));
  (* Speculating an operation is only useful if prediction actually lets it
     issue earlier: compare its unconstrained earliest issue time with and
     without the selected loads' dependences (the loads virtually replaced
     by dependence-free unit-latency producers). Operations that would not
     move are left non-speculative — they cost compensation work and a
     Synchronization-register bit while buying nothing. *)
  let est_orig = Vp_ir.Depgraph.earliest orig_graph in
  let est_virtual =
    Vp_ir.Depgraph.earliest
      (Vp_ir.Depgraph.build ~latency (virtual_block block ~replaced:sel))
  in
  let speculated = Array.make n false in
  let from_pred = Array.make n false in
  let num_spec = ref 0 in
  for i = 0 to n - 1 do
    let op = Vp_ir.Block.op block i in
    let fp =
      List.exists
        (fun (e : Vp_ir.Depgraph.edge) ->
          sel.(e.src) || speculated.(e.src))
        (flow_preds orig_graph i)
    in
    from_pred.(i) <- fp;
    if
      fp && (not sel.(i)) && speculable policy block op
      && est_virtual.(i) < est_orig.(i)
      && !num_spec < spec_budget
    then begin
      speculated.(i) <- true;
      incr num_spec
    end
  done;
  (* A prediction all of whose dependents were pruned is pure overhead. *)
  List.iter
    (fun load ->
      let k = k_of.(load) in
      let feeds_speculation =
        List.exists
          (fun (e : Vp_ir.Depgraph.edge) -> speculated.(e.dst))
          (flow_succs orig_graph load)
        && k >= 0
      in
      if not feeds_speculation then raise (Drop_prediction load))
    selection;
  let bit_of = Array.make n (-1) in
  let next_bit = ref num_sel in
  for i = 0 to n - 1 do
    if speculated.(i) then begin
      bit_of.(i) <- !next_bit;
      incr next_bit
    end
  done;
  let sync_bits_used = !next_bit in
  (* Prediction indexes each speculated value depends on (original ids). *)
  let orig_pred_deps = Array.make n [] in
  for i = 0 to n - 1 do
    if speculated.(i) then
      orig_pred_deps.(i) <-
        List.fold_left
          (fun acc (e : Vp_ir.Depgraph.edge) ->
            if sel.(e.src) then k_of.(e.src) :: acc
            else if speculated.(e.src) then orig_pred_deps.(e.src) @ acc
            else acc)
          [] (flow_preds orig_graph i)
        |> List.sort_uniq compare
  done;
  (* Fresh predicted-value registers. *)
  let max_reg = max_reg block in
  let pred_reg k = max_reg + 1 + k in
  let dest_reg i =
    match Vp_ir.Operation.writes (Vp_ir.Block.op block i) with
    | Some r -> r
    | None -> assert false (* selected ops are loads *)
  in
  (* Transformed operation list: LdPreds first, then the rewritten block. *)
  let new_id i = i + num_sel in
  let ldpreds =
    List.mapi
      (fun k i ->
        Vp_ir.Operation.with_form
          (Vp_ir.Operation.make ~dst:(pred_reg k) ~id:k Vp_ir.Opcode.Ld_pred)
          (Ldpred_of { sync_bit = k; checked_by = new_id i }))
      selection
  in
  let rewrite i (op : Vp_ir.Operation.t) =
    if sel.(i) then
      Vp_ir.Operation.with_form op
        (Check { pred_bit = k_of.(i); spec_bits = [] })
    else if speculated.(i) then begin
      (* Direct consumers of a predicted load read the predicted-value
         register instead of the load's destination. *)
      let renames =
        List.filter_map
          (fun (e : Vp_ir.Depgraph.edge) ->
            if sel.(e.src) then Some (dest_reg e.src, pred_reg k_of.(e.src))
            else None)
          (flow_preds orig_graph i)
      in
      let rename r =
        match List.assoc_opt r renames with Some r' -> r' | None -> r
      in
      let srcs = List.map rename op.srcs in
      let guard = Option.map (fun (p, pol) -> (rename p, pol)) op.guard in
      Vp_ir.Operation.with_form { op with srcs; guard }
        (Speculative { sync_bit = bit_of.(i) })
    end
    else if from_pred.(i) then
      Vp_ir.Operation.with_form op Non_speculative
    else op
  in
  let body = List.mapi rewrite (Array.to_list (Vp_ir.Block.ops block)) in
  let make_block body_ops =
    Vp_ir.Block.of_ops
      ~label:(Vp_ir.Block.label block ^ "+vp")
      (ldpreds @ body_ops)
  in
  let new_block = make_block body in
  let new_n = n + num_sel in
  (* Wait bits: a non-speculative consumer (including a check with predicted
     ancestry in its address) stalls on the bits of its speculative operand
     producers. *)
  let wait_bits = Array.make new_n [] in
  for i = 0 to n - 1 do
    if from_pred.(i) && not speculated.(i) then
      wait_bits.(new_id i) <-
        List.filter_map
          (fun (e : Vp_ir.Depgraph.edge) ->
            if speculated.(e.src) then Some bit_of.(e.src) else None)
          (flow_preds orig_graph i)
        |> List.sort_uniq compare
  done;
  (* Verify edges: a stalling consumer may issue only after the checks that
     resolve its producers' bits have completed. *)
  let check_new_id k = new_id selected.(k) in
  let check_latency k = latency (Vp_ir.Block.op block selected.(k)) in
  let verify_edge k x =
    let src = check_new_id k in
    if src >= x then raise (Drop_prediction selected.(k));
    { Vp_ir.Depgraph.src; dst = x; kind = Verify; delay = check_latency k }
  in
  let base_extra =
    List.concat_map
      (fun i ->
        if from_pred.(i) && not speculated.(i) then
          List.concat_map
            (fun (e : Vp_ir.Depgraph.edge) ->
              if speculated.(e.src) then
                List.map
                  (fun k -> verify_edge k (new_id i))
                  orig_pred_deps.(e.src)
              else [])
            (flow_preds orig_graph i)
        else [])
      (List.init n (fun i -> i))
  in
  (* Schedule with deadlock repair: when an instruction stalls, every check
     the in-order CCE may need in order to clear the awaited bits must have
     issued already. Repair by forcing the consumer after the offending
     check; if the check follows the consumer in program order the
     prediction is unschedulable and gets dropped. *)
  let spec_new_ids =
    List.init n (fun i -> i)
    |> List.filter (fun i -> speculated.(i))
    |> List.map new_id
  in
  let waiting_ops =
    List.init new_n (fun i -> i) |> List.filter (fun i -> wait_bits.(i) <> [])
  in
  (* Verify edges from one check share its delay, so (src, dst) orders and
     identifies them. *)
  let dedup edges =
    List.sort_uniq
      (fun (a : Vp_ir.Depgraph.edge) b ->
        match Int.compare a.src b.src with
        | 0 -> Int.compare a.dst b.dst
        | c -> c)
      edges
  in
  (* Transformed id of the speculative operation owning each sync bit. *)
  let producer_of_bit =
    let producer = Array.make sync_bits_used (-1) in
    List.iter (fun s -> producer.(bit_of.(s - num_sel)) <- s) spec_new_ids;
    Array.get producer
  in
  let rec schedule_fixpoint extra iterations =
    if iterations > 32 then
      (* Cannot happen: each round adds at least one of finitely many
         edges. Guard anyway. *)
      raise (Drop_prediction (List.hd selection));
    let graph = Vp_ir.Depgraph.build ~extra ~latency new_block in
    let sched = Vp_sched.List_scheduler.schedule descr graph in
    let issue i = Vp_sched.Schedule.issue_cycle sched i in
    (* When instruction [x] stalls on a bit, the in-order CCE must be able
       to clear it: the bit's producer — and every CCB entry ahead of the
       producer (issued earlier, or in the same cycle with a lower id) —
       needs its predictions' checks to have completed by [x]'s issue. *)
    let ahead_of s' s_b =
      issue s' < issue s_b || (issue s' = issue s_b && s' < s_b)
    in
    let violations =
      List.concat_map
        (fun x ->
          let cx = issue x in
          let producers = List.map producer_of_bit wait_bits.(x) in
          let relevant =
            List.concat_map
              (fun s_b ->
                s_b :: List.filter (fun s' -> ahead_of s' s_b) spec_new_ids)
              producers
            |> List.sort_uniq compare
          in
          List.concat_map
            (fun s ->
              List.filter_map
                (fun k ->
                  let completion = issue (check_new_id k) + check_latency k in
                  if completion > cx then Some (verify_edge k x) else None)
                orig_pred_deps.(s - num_sel))
            relevant)
        waiting_ops
      |> dedup
    in
    if violations = [] then (graph, sched)
    else schedule_fixpoint (dedup (violations @ extra)) (iterations + 1)
  in
  let graph, sched = schedule_fixpoint (dedup base_extra) 0 in
  (* Assign each speculative operation's bit to the check that completes
     last among the predictions it depends on — that check's success is the
     one that clears the bit (Section 2.1's conditional clearing). *)
  let completion i =
    Vp_sched.Schedule.issue_cycle sched i
    + latency (Vp_ir.Block.op new_block i)
  in
  let spec_bits_of_check = Array.make num_sel [] in
  for i = 0 to n - 1 do
    if speculated.(i) then begin
      let last_k =
        List.fold_left
          (fun best k ->
            let c = completion (check_new_id k) in
            match best with
            | Some (_, cb) when cb >= c -> best
            | _ -> Some (k, c))
          None orig_pred_deps.(i)
      in
      match last_k with
      | Some (k, _) ->
          spec_bits_of_check.(k) <- bit_of.(i) :: spec_bits_of_check.(k)
      | None -> assert false (* speculated ops have prediction deps *)
    end
  done;
  (* Final block with the checks' conditional-clear lists filled in. *)
  let final_body =
    List.mapi
      (fun i op ->
        if sel.(i) then
          Vp_ir.Operation.with_form op
            (Check
               {
                 pred_bit = k_of.(i);
                 spec_bits = List.sort compare spec_bits_of_check.(k_of.(i));
               })
        else op)
      body
  in
  let final_block = make_block final_body in
  (* Only the checks' [spec_bits] changed, and forms create no
     dependences: the fixpoint's graph is the final block's. *)
  let final_graph = Vp_ir.Depgraph.with_block graph final_block in
  let final_sched =
    Vp_sched.Schedule.make descr final_graph
      ~issue:
        (Array.init new_n (fun i -> Vp_sched.Schedule.issue_cycle sched i))
  in
  (* Per-operation metadata for the engines. *)
  let predicted =
    Array.of_list
      (List.mapi
         (fun k i ->
           {
             Spec_block.index = k;
             orig_load_id = i;
             check_id = new_id i;
             ldpred_id = k;
             dest_reg = dest_reg i;
             pred_reg = pred_reg k;
             sync_bit = k;
             rate =
               Option.value ~default:0.0 (rate (Vp_ir.Block.op block i));
             stream = (Vp_ir.Block.op block i).stream;
           })
         selection)
  in
  let pred_deps = Array.make new_n [] in
  List.iteri (fun k _ -> pred_deps.(k) <- [ k ]) selection;
  for i = 0 to n - 1 do
    if speculated.(i) then pred_deps.(new_id i) <- orig_pred_deps.(i)
  done;
  let operand_sources =
    (* over [reads] (sources plus guard): the CCE must also wait for a
       speculative guard producer to resolve before re-deciding execution *)
    Array.init new_n (fun i ->
        let op = Vp_ir.Block.op final_block i in
        List.map
          (fun r ->
            match Vp_ir.Block.last_writer final_block ~before:i r with
            | Some w when w < num_sel -> Spec_block.From_prediction w
            | Some w when speculated.(w - num_sel) -> Spec_block.From_spec w
            | Some _ | None -> Spec_block.Verified)
          (Vp_ir.Operation.reads op))
  in
  (* A CCE recomputation may write the register file when the write cannot
     clobber a later (program-order) write that has already committed. That
     holds when the speculative operation is the block's last writer of the
     register, or when some stalling consumer (non-speculative or check)
     reads the register with this operation as its last writer: the
     consumer's Synchronization-register wait forces every subsequent writer
     to commit after the CCE write. Conversely, when neither holds, nothing
     needs the corrected value in the register file and writing it back
     could clobber a later result. *)
  let cce_writeback =
    Array.init new_n (fun i ->
        i >= num_sel
        && speculated.(i - num_sel)
        &&
        match Vp_ir.Operation.writes (Vp_ir.Block.op final_block i) with
        | None -> false
        | Some r ->
            Vp_ir.Block.last_writer final_block ~before:new_n r = Some i
            || List.exists
                 (fun x ->
                   let op_x = Vp_ir.Block.op final_block x in
                   (match op_x.form with
                   | Non_speculative | Check _ -> true
                   | Normal | Ldpred_of _ | Speculative _ -> false)
                   && List.mem r op_x.srcs
                   && Vp_ir.Block.last_writer final_block ~before:x r = Some i)
                 (List.init (new_n - i - 1) (fun d -> i + 1 + d)))
  in
  let wait_masks =
    Array.map
      (fun ops ->
        let mask = Vp_util.Bitset.create () in
        List.iter
          (fun (op : Vp_ir.Operation.t) ->
            List.iter (Vp_util.Bitset.set mask) wait_bits.(op.id))
          ops;
        mask)
      (Vp_sched.Schedule.instructions final_sched)
  in
  {
    Spec_block.original_block = block;
    original_graph = orig_graph;
    original_schedule = orig_sched;
    block = final_block;
    graph = final_graph;
    schedule = final_sched;
    predicted;
    pred_deps;
    operand_sources;
    wait_bits;
    wait_masks;
    cce_writeback;
    sync_bits_used;
  }

let apply ?(policy = Policy.default) ?baseline descr ~rate block =
  let latency = Vp_machine.Descr.latency descr in
  let orig_graph, orig_sched =
    match baseline with
    | Some sched ->
        if Vp_ir.Block.size (Vp_sched.Schedule.block sched) <> Vp_ir.Block.size block
        then invalid_arg "Transform.apply: baseline schedules another block";
        (Vp_sched.Schedule.graph sched, sched)
    | None ->
        let graph = Vp_ir.Depgraph.build ~latency block in
        (graph, Vp_sched.List_scheduler.schedule descr graph)
  in
  let no_candidates_reason () =
    let loads = Vp_ir.Block.loads block in
    if loads = [] then "no loads"
    else if
      List.for_all
        (fun (op : Vp_ir.Operation.t) ->
          match rate op with
          | Some r -> r < policy.Policy.threshold
          | None -> true)
        loads
    then
      Printf.sprintf "no load above the %.2f profile threshold"
        policy.Policy.threshold
    else "no profitable predictions (off the critical path or no dependents)"
  in
  let rec attempt dropped selection =
    match selection with
    | [] ->
        Unchanged
          (if dropped then "every candidate prediction was unschedulable"
           else no_candidates_reason ())
    | _ -> (
        try
          Speculated
            (build_spec policy descr orig_graph orig_sched ~rate block
               selection)
        with Drop_prediction i ->
          attempt true (List.filter (fun j -> j <> i) selection))
  in
  attempt false (select policy ~latency orig_graph ~rate block)
