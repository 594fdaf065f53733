type result = {
  cycles : int;
  vliw_cycles : int;
  stall_cycles : int;
  flushed : int;
  recomputed : int;
  ccb_high_water : int;
  mispredicted : int;
  final_regs : (int * int) list;
  stores : (int * int) list;
}

exception Deadlock of string

type item =
  | Plain of Vp_sched.Schedule.t * Reference.t
  | Speculated of {
      sb : Vp_vspec.Spec_block.t;
      reference : Reference.t;
      outcomes : Scenario.t;
    }

type sequence_result = {
  total_cycles : int;
  issue_cycles : int;
  stall_cycles : int;
  flushed : int;
  recomputed : int;
  ccb_high_water : int;
  state_ok : bool;
}

(* One dynamic block instance: the registers, Synchronization register and
   per-prediction / per-speculative-op state private to it. Registers are
   private because generated blocks are register-disjoint apart from the
   read-only live-ins; the sync bits are namespaced by the instance. *)
type instance = {
  sb : Vp_vspec.Spec_block.t;
  reference : Reference.t;
  outcomes : Scenario.t;
  insns : Vp_ir.Operation.t list array;
  sync : Vp_util.Bitset.t;
  regs : (int, int) Hashtbl.t;
  mutable stores : (int * int) list;  (* newest first *)
  (* per prediction *)
  ovb_pred_known : int array;
  (* per speculative op, indexed by transformed id *)
  unresolved : int array;
  tainted : bool array;
  spec_correct_known : int array;
  cce_value_time : int array;
  correct_known_scheduled : bool array;
  (* Old destination values captured at speculative issue: recovery restores
     them when the operation turns out predicated off (the transform only
     speculates guarded ops whose destination is a first write, so the
     capture is always the correct old value). *)
  captured_old : int array;
}

type event =
  | Vliw_write of { inst : instance; reg : int; value : int }
  | Check_complete of { inst : instance; k : int }
  | Ovb_pred_known of { inst : instance; k : int }
  | Spec_correct_known of { inst : instance; s : int }
  | Cce_complete of { inst : instance; s : int; value : int }
  | Store_commit of { inst : instance; addr : int; value : int }

type ccb_entry = { inst : instance; s : int; entry_time : int }

(* The fetch stream: an unspeculated block only occupies the issue slots of
   its schedule, so it is kept as each instruction's longest latency (-1
   for an empty one); a speculated one is simulated in full. *)
type fetch = Fetch_plain of int array | Fetch_spec of instance

(* The shared machine: one clock, one VLIW fetch stream, one CCB and one
   Compensation Code Engine. *)
type machine = {
  live_in : int -> int;
  events : (int, event Queue.t) Hashtbl.t;
  mutable pending_events : int;
  ccb : ccb_entry Vp_util.Fifo.t;
  mutable stream : fetch list;
  mutable cursor : int;  (* next instruction of the stream's head *)
  mutable now : int;
  mutable last_completion : int;
  mutable vliw_last : int;
  mutable last_issue : int;
  mutable stalls : int;
  mutable flushes : int;
  mutable recomputes : int;
  (* Observation plumbing, engaged only when an observer is supplied. *)
  observing : bool;
  mutable issued : int list;
  mutable actions : Engine_trace.cce_action list;
}

let make_instance ~who sb reference outcomes =
  let open Vp_vspec.Spec_block in
  let num_preds = Array.length sb.predicted in
  if Array.length outcomes <> num_preds then
    invalid_arg (who ^ ": outcomes length mismatch");
  if reference.Reference.block != sb.original_block then
    (* Structural check is enough; physical equality is the common case. *)
    if
      Vp_ir.Block.size reference.Reference.block
      <> Vp_ir.Block.size sb.original_block
    then invalid_arg (who ^ ": reference block mismatch");
  let new_n = Vp_ir.Block.size sb.block in
  let unresolved = Array.make new_n 0 in
  Array.iter
    (fun (op : Vp_ir.Operation.t) ->
      if Vp_ir.Operation.is_speculative op then
        unresolved.(op.id) <- List.length sb.pred_deps.(op.id))
    (Vp_ir.Block.ops sb.block);
  {
    sb;
    reference;
    outcomes;
    insns = Vp_sched.Schedule.instructions sb.schedule;
    sync = Vp_util.Bitset.create ();
    regs = Hashtbl.create new_n;
    stores = [];
    ovb_pred_known = Array.make num_preds max_int;
    unresolved;
    tainted = Array.make new_n false;
    spec_correct_known = Array.make new_n max_int;
    cce_value_time = Array.make new_n max_int;
    correct_known_scheduled = Array.make new_n false;
    captured_old = Array.make new_n 0;
  }

let make_machine ~live_in ~observing stream =
  {
    live_in;
    events = Hashtbl.create 64;
    pending_events = 0;
    ccb = Vp_util.Fifo.create ();
    stream;
    cursor = 0;
    now = 0;
    last_completion = 0;
    vliw_last = 0;
    last_issue = 0;
    stalls = 0;
    flushes = 0;
    recomputes = 0;
    observing;
    issued = [];
    actions = [];
  }

(* --- Per-instance helpers --- *)

let read_reg m inst r =
  match Hashtbl.find_opt inst.regs r with Some v -> v | None -> m.live_in r

let write_reg inst r v = Hashtbl.replace inst.regs r v
let latency inst i = Vp_ir.Depgraph.latency inst.sb.graph i
let orig_of inst i = i - Array.length inst.sb.predicted
let correct_result inst i = inst.reference.results.(orig_of inst i)

let sync_bit_of inst s =
  match Vp_ir.Operation.sets_sync_bit (Vp_ir.Block.op inst.sb.block s) with
  | Some b -> b
  | None -> assert false

(* --- Shared machine helpers --- *)

let schedule_event m t e =
  m.pending_events <- m.pending_events + 1;
  match Hashtbl.find_opt m.events t with
  | Some q -> Queue.push e q
  | None ->
      let q = Queue.create () in
      Hashtbl.replace m.events t q;
      Queue.push e q

let complete_at m t = if t > m.last_completion then m.last_completion <- t

let vliw_complete_at m t =
  complete_at m t;
  if t > m.vliw_last then m.vliw_last <- t

(* A speculative operation whose every prediction has verified correct is
   resolved: its Synchronization-register bit is cleared and the OVB learns
   its state one cycle later. Called when a check completes, and again when
   a speculative operation issues after its checks already finished (its
   just-set bit must not linger). *)
let resolve_if_verified m inst s =
  if inst.unresolved.(s) = 0 && not inst.tainted.(s) then begin
    Vp_util.Bitset.clear inst.sync (sync_bit_of inst s);
    if not inst.correct_known_scheduled.(s) then begin
      inst.correct_known_scheduled.(s) <- true;
      schedule_event m (m.now + 1) (Spec_correct_known { inst; s })
    end
  end

let handle_check_complete m inst k =
  let p = inst.sb.predicted.(k) in
  Vp_util.Bitset.clear inst.sync p.sync_bit;
  (* The check re-executed the load: the correct value lands in the
     destination register — unless the (guarded) load was predicated off,
     in which case the destination is untouched and the verification
     machinery still runs (off-path consumers are themselves off). *)
  if inst.reference.executed.(orig_of inst p.check_id) then
    write_reg inst p.dest_reg (correct_result inst p.check_id);
  complete_at m m.now;
  schedule_event m (m.now + 1) (Ovb_pred_known { inst; k });
  let correct = inst.outcomes.(k) in
  Array.iter
    (fun (op : Vp_ir.Operation.t) ->
      if
        Vp_ir.Operation.is_speculative op
        && List.mem k inst.sb.pred_deps.(op.id)
      then begin
        inst.unresolved.(op.id) <- inst.unresolved.(op.id) - 1;
        if not correct then inst.tainted.(op.id) <- true;
        resolve_if_verified m inst op.id
      end)
    (Vp_ir.Block.ops inst.sb.block)

let handle_event m = function
  | Vliw_write { inst; reg; value } ->
      write_reg inst reg value;
      complete_at m m.now
  | Check_complete { inst; k } -> handle_check_complete m inst k
  | Ovb_pred_known { inst; k } -> inst.ovb_pred_known.(k) <- m.now
  | Spec_correct_known { inst; s } -> inst.spec_correct_known.(s) <- m.now
  | Cce_complete { inst; s; value } ->
      inst.cce_value_time.(s) <- m.now;
      Vp_util.Bitset.clear inst.sync (sync_bit_of inst s);
      if inst.sb.cce_writeback.(s) then begin
        let r =
          Option.get (Vp_ir.Operation.writes (Vp_ir.Block.op inst.sb.block s))
        in
        write_reg inst r value
      end;
      complete_at m m.now
  | Store_commit { inst; addr; value } ->
      inst.stores <- (addr, value) :: inst.stores;
      complete_at m m.now

let note_action m a = if m.observing then m.actions <- a :: m.actions

(* One CCE head step: returns [true] if the head was retired. *)
let cce_step m =
  let now = m.now in
  match Vp_util.Fifo.peek m.ccb with
  | None -> false
  | Some { inst; s; entry_time } when entry_time < now -> (
      let ready_and_correct =
        List.fold_left
          (fun acc src ->
            match acc with
            | None -> None
            | Some correct_so_far -> (
                match src with
                | Vp_vspec.Spec_block.Verified -> Some correct_so_far
                | From_prediction k ->
                    if inst.ovb_pred_known.(k) <= now then
                      Some (correct_so_far && inst.outcomes.(k))
                    else None
                | From_spec s' ->
                    if inst.spec_correct_known.(s') <= now then
                      Some correct_so_far
                    else if inst.cce_value_time.(s') <= now then Some false
                    else None))
          (Some true) inst.sb.operand_sources.(s)
      in
      match ready_and_correct with
      | None ->
          (* head stalls on an unresolved operand *)
          note_action m (Engine_trace.Cce_stalled s);
          false
      | Some true ->
          ignore (Vp_util.Fifo.pop m.ccb);
          m.flushes <- m.flushes + 1;
          note_action m (Engine_trace.Cce_flushed s);
          true
      | Some false ->
          ignore (Vp_util.Fifo.pop m.ccb);
          m.recomputes <- m.recomputes + 1;
          note_action m (Engine_trace.Cce_recompute s);
          (* Re-execution with fully correct operands yields the reference
             value — or, if the operation turns out predicated off,
             restores the old destination value captured at issue. *)
          let value =
            if inst.reference.executed.(orig_of inst s) then
              correct_result inst s
            else inst.captured_old.(s)
          in
          schedule_event m
            (now + latency inst s)
            (Cce_complete { inst; s; value });
          true)
  | Some _ -> false (* entered this very cycle; processed next cycle *)

(* Issue every operation of instruction [c] of [inst]. *)
let issue_instruction m inst c =
  let now = m.now in
  List.iter
    (fun (op : Vp_ir.Operation.t) ->
      if m.observing then m.issued <- op.id :: m.issued;
      let lat = latency inst op.id in
      vliw_complete_at m (now + lat);
      let captured = List.map (read_reg m inst) op.srcs in
      (* Predication: guarded operations are Normal/Non_speculative by
         policy; their (verified) guard decides whether any state changes.
         The slot is occupied either way. *)
      let guard_on =
        match op.guard with
        | None -> true
        | Some (p, polarity) -> read_reg m inst p <> 0 = polarity
      in
      match op.form with
      | (Normal | Non_speculative) when not guard_on ->
          assert (op.guard <> None)
          (* predicated off with a verified guard: no state change *)
      | Ldpred_of { sync_bit; _ } ->
          let k = op.id in
          Vp_util.Bitset.set inst.sync sync_bit;
          let correct = correct_result inst inst.sb.predicted.(k).check_id in
          let value =
            if inst.outcomes.(k) then correct else Alu.wrong_value correct
          in
          schedule_event m (now + lat)
            (Vliw_write { inst; reg = inst.sb.predicted.(k).pred_reg; value })
      | Check _ ->
          let k =
            match Vp_vspec.Spec_block.prediction_by_check inst.sb op.id with
            | Some p -> p.index
            | None -> assert false
          in
          schedule_event m (now + lat) (Check_complete { inst; k })
      | Speculative { sync_bit } ->
          Vp_util.Bitset.set inst.sync sync_bit;
          let reg =
            match op.dst with
            | Some reg -> reg
            | None -> assert false (* speculated ops write registers *)
          in
          inst.captured_old.(op.id) <- read_reg m inst reg;
          (* [guard_on] was evaluated from the (possibly predicted) register
             file: a wrong decision here is exactly what the CCE recovers
             from. *)
          if guard_on then begin
            let value =
              if Vp_ir.Operation.is_load op then
                Alu.load_result
                  ~addr:(List.hd captured)
                  ~correct_addr:
                    (List.hd inst.reference.operands.(orig_of inst op.id))
                  ~correct_value:(correct_result inst op.id)
              else Alu.eval op.opcode captured
            in
            schedule_event m (now + lat) (Vliw_write { inst; reg; value })
          end;
          let ok =
            Vp_util.Fifo.push m.ccb { inst; s = op.id; entry_time = now }
          in
          assert ok (* capacity was checked before issue *);
          (* If the checks already verified this operation's predictions
             correct, the bit just set must resolve immediately. *)
          resolve_if_verified m inst op.id
      | Normal | Non_speculative -> (
          match op.opcode with
          | Store -> (
              match captured with
              | [ addr; value ] ->
                  schedule_event m (now + lat)
                    (Store_commit { inst; addr; value })
              | _ -> assert false)
          | Branch -> ()
          | Load ->
              schedule_event m (now + lat)
                (Vliw_write
                   {
                     inst;
                     reg = Option.get op.dst;
                     value = correct_result inst op.id;
                   })
          | Ld_pred -> assert false (* always carries Ldpred_of form *)
          | Add | Sub | Mul | Div | And | Or | Xor | Shift | Move | Cmp | Fadd
          | Fmul | Fdiv ->
              schedule_event m (now + lat)
                (Vliw_write
                   {
                     inst;
                     reg = Option.get op.dst;
                     value = Alu.eval op.opcode captured;
                   })))
    inst.insns.(c)

(* Advance the fetch cursor past an issued instruction of a head holding
   [len] instructions. *)
let advance m rest len =
  m.last_issue <- m.now + 1;
  m.cursor <- m.cursor + 1;
  if m.cursor >= len then begin
    m.stream <- rest;
    m.cursor <- 0
  end

(* VLIW Engine issue: one instruction per cycle, strictly in order. Returns
   [true] when the head instruction stalled. *)
let issue m ~ccb_capacity =
  match m.stream with
  | [] -> false
  | Fetch_plain latencies :: rest ->
      let lat = latencies.(m.cursor) in
      if lat >= 0 then vliw_complete_at m (m.now + lat);
      advance m rest (Array.length latencies);
      false
  | Fetch_spec inst :: rest ->
      let c = m.cursor in
      let spec_in_insn =
        List.length (List.filter Vp_ir.Operation.is_speculative inst.insns.(c))
      in
      let ccb_room = Vp_util.Fifo.length m.ccb + spec_in_insn <= ccb_capacity in
      if
        (not (Vp_util.Bitset.intersects inst.sb.wait_masks.(c) inst.sync))
        && ccb_room
      then begin
        issue_instruction m inst c;
        advance m rest (Array.length inst.insns);
        false
      end
      else begin
        m.stalls <- m.stalls + 1;
        true
      end

(* The clock loop. Each cycle: 1. the completions scheduled for it, 2. up
   to [cce_retire_width] CCE head retirements, 3. VLIW issue, 4. the
   observer's snapshot. [deadlock] renders the message raised once the
   cycle count passes [limit]. *)
let simulate m ~ccb_capacity ~cce_retire_width ~limit ~deadlock ~observe =
  while
    m.stream <> [] || m.pending_events > 0 || not (Vp_util.Fifo.is_empty m.ccb)
  do
    let now = m.now in
    if now > limit then raise (Deadlock (deadlock m));
    (match Hashtbl.find_opt m.events now with
    | Some q ->
        Queue.iter
          (fun e ->
            m.pending_events <- m.pending_events - 1;
            handle_event m e)
          q;
        Hashtbl.remove m.events now
    | None -> ());
    let rec cce_drain budget =
      if budget > 0 && cce_step m then cce_drain (budget - 1)
    in
    cce_drain cce_retire_width;
    let vliw_stalled = issue m ~ccb_capacity in
    observe m vliw_stalled;
    m.now <- now + 1
  done

let check_retire_width ~who w =
  if w < 1 then invalid_arg (who ^ ": cce_retire_width < 1")

(* --- The one-block stream --- *)

(* The index of the next instruction of [inst], the stream's only block. *)
let next_insn m inst =
  if m.stream = [] then Array.length inst.insns else m.cursor

(* One snapshot per cycle, Figure-7 style. *)
let snapshot m inst ~vliw_stalled : Engine_trace.snapshot =
  let now = m.now in
  let sb = inst.sb in
  let issued i =
    Vp_sched.Schedule.issue_cycle sb.schedule i < next_insn m inst
  in
  let label i =
    Printf.sprintf "v%d"
      (Option.value ~default:(-1)
         (Vp_ir.Operation.writes (Vp_ir.Block.op sb.block i)))
  in
  let ovb_predictions =
    Array.to_list sb.predicted
    |> List.filter_map (fun (p : Vp_vspec.Spec_block.predicted_load) ->
           if not (issued p.ldpred_id) then None
           else
             Some
               {
                 Engine_trace.label = Printf.sprintf "v%d" p.dest_reg;
                 kind = `Predicted;
                 state =
                   (if inst.ovb_pred_known.(p.index) <= now then
                      if inst.outcomes.(p.index) then Engine_trace.C
                      else Engine_trace.R
                    else Engine_trace.PN);
               })
  in
  let ovb_speculative =
    Array.to_list (Vp_ir.Block.ops sb.block)
    |> List.filter_map (fun (op : Vp_ir.Operation.t) ->
           if not (Vp_ir.Operation.is_speculative op && issued op.id) then None
           else
             Some
               {
                 Engine_trace.label = label op.id;
                 kind = `Speculative;
                 state =
                   (if inst.spec_correct_known.(op.id) <= now then
                      Engine_trace.C
                    else if
                      inst.cce_value_time.(op.id) <= now
                      || (inst.unresolved.(op.id) = 0 && inst.tainted.(op.id))
                    then Engine_trace.R
                    else Engine_trace.RN);
               })
  in
  {
    cycle = now;
    issued = List.rev m.issued;
    vliw_stalled;
    sync_bits = Vp_util.Bitset.elements inst.sync;
    ccb = List.map (fun (e : ccb_entry) -> e.s) (Vp_util.Fifo.to_list m.ccb);
    ovb = ovb_predictions @ ovb_speculative;
    cce = List.rev m.actions;
  }

let run ?(ccb_capacity = max_int) ?(cce_retire_width = 1) ?observer
    (sb : Vp_vspec.Spec_block.t) ~reference ~live_in ~outcomes =
  let who = "Dual_engine.run" in
  check_retire_width ~who cce_retire_width;
  let inst = make_instance ~who sb reference outcomes in
  let m =
    make_machine ~live_in ~observing:(observer <> None) [ Fetch_spec inst ]
  in
  let num_insns = Array.length inst.insns in
  let limit =
    (20 * (Vp_sched.Schedule.length sb.schedule + 10))
    + (50 * Vp_ir.Block.size sb.block)
    + 200
  in
  let deadlock m =
    let head =
      match Vp_util.Fifo.peek m.ccb with
      | Some { s; entry_time; _ } ->
          Printf.sprintf "op %d (entered %d)" s entry_time
      | None -> "none"
    in
    Printf.sprintf
      "block %s: no progress by cycle %d (insn %d/%d, %d pending events, CCB \
       %d head %s, sync %s)"
      (Vp_ir.Block.label sb.block)
      m.now (next_insn m inst) num_insns m.pending_events
      (Vp_util.Fifo.length m.ccb)
      head
      (Format.asprintf "%a" Vp_util.Bitset.pp inst.sync)
  in
  let observe =
    match observer with
    | None -> fun _ _ -> ()
    | Some notify ->
        fun m vliw_stalled ->
          notify (snapshot m inst ~vliw_stalled);
          m.issued <- [];
          m.actions <- []
  in
  simulate m ~ccb_capacity ~cce_retire_width ~limit ~deadlock ~observe;
  {
    cycles = m.last_completion;
    vliw_cycles = m.vliw_last;
    stall_cycles = m.stalls;
    flushed = m.flushes;
    recomputed = m.recomputes;
    ccb_high_water = Vp_util.Fifo.high_water_mark m.ccb;
    mispredicted = Array.length outcomes - Scenario.count_correct outcomes;
    final_regs =
      List.map
        (fun (r, _) -> (r, read_reg m inst r))
        reference.Reference.final_regs;
    stores = List.rev inst.stores;
  }

let run_unspeculated schedule ~reference =
  {
    cycles = Vp_sched.Schedule.length schedule;
    vliw_cycles = Vp_sched.Schedule.length schedule;
    stall_cycles = 0;
    flushed = 0;
    recomputed = 0;
    ccb_high_water = 0;
    mispredicted = 0;
    final_regs = reference.Reference.final_regs;
    stores = reference.Reference.stores;
  }

(* --- Block sequences --- *)

let plain_fetch s =
  let latencies = Array.make (Vp_sched.Schedule.num_instructions s) (-1) in
  for i = 0 to Vp_ir.Block.size (Vp_sched.Schedule.block s) - 1 do
    let c = Vp_sched.Schedule.issue_cycle s i in
    latencies.(c) <-
      max latencies.(c) (Vp_ir.Depgraph.latency (Vp_sched.Schedule.graph s) i)
  done;
  Fetch_plain latencies

let run_sequence ?(ccb_capacity = max_int) ?(cce_retire_width = 1) ~live_in
    items =
  let who = "Dual_engine.run_sequence" in
  check_retire_width ~who cce_retire_width;
  let stream =
    List.map
      (function
        | Plain (s, _) -> plain_fetch s
        | Speculated { sb; reference; outcomes } ->
            Fetch_spec (make_instance ~who sb reference outcomes))
      items
  in
  let static_len =
    List.fold_left
      (fun acc f ->
        acc
        +
        match f with
        | Fetch_plain latencies -> Array.length latencies
        | Fetch_spec inst -> Array.length inst.insns)
      0 stream
  in
  let m = make_machine ~live_in ~observing:false stream in
  let deadlock m =
    Printf.sprintf "sequence: no progress by cycle %d (%d pending)" m.now
      m.pending_events
  in
  simulate m ~ccb_capacity ~cce_retire_width
    ~limit:((20 * (static_len + 10)) + 2000)
    ~deadlock
    ~observe:(fun _ _ -> ());
  (* Sequence-level equivalence: every instance must have converged to its
     reference's architectural state. *)
  let state_ok =
    List.for_all
      (function
        | Fetch_plain _ -> true
        | Fetch_spec inst ->
            List.for_all
              (fun (r, v) -> read_reg m inst r = v)
              inst.reference.final_regs
            && List.rev inst.stores = inst.reference.stores)
      stream
  in
  {
    total_cycles = m.last_completion;
    issue_cycles = m.last_issue;
    stall_cycles = m.stalls;
    flushed = m.flushes;
    recomputed = m.recomputes;
    ccb_high_water = Vp_util.Fifo.high_water_mark m.ccb;
    state_ok;
  }
