(* Compile-once scenario kernel.

   [Dual_engine.run] re-derives everything it needs — hashtable register
   files, per-cycle event queues, sync-bit lookups — from the [Spec_block]
   on every call, although only the outcome vector changes between the
   scenarios of one block. This module splits that work:

   - [compile] lowers a speculated block ONCE into flat immutable arrays:
     per-operation latencies, dense register indices, sync-bit ids,
     prediction-dependency counts, per-cycle issue slots and wait bits,
     and the reference results every scenario shares;
   - [run_bitset] replays a set of outcome vectors against the compiled
     form, up to [Sys.int_size] of them per machine word, in a
     caller-owned {!Lanes.t} of preallocated slabs, so the per-scenario
     cost is slab resets, not allocation. The CCB capacity and CCE retire
     width are run-time parameters of the machine, not of the block: only
     the issue stage's CCB check and the CCE step read them, so one
     kernel serves every CCE shape.

   The semantics are bit-for-bit those of [Dual_engine.run] (no observer):
   the event calendar preserves insertion order per cycle, prediction
   dependents are visited in ascending operation order, and the CCE operand
   scan reproduces the engine's fold exactly. [test_kernel_equiv] checks
   structural equality of the result records, and of the deadlock
   messages, on random blocks x random outcome vectors; the paper tables
   are regenerated through this kernel and must stay byte-identical to the
   oracle's output. *)

type osrc = O_verified | O_pred of int | O_spec of int

type action =
  | A_ldpred of { k : int; v_correct : int; v_wrong : int }
  | A_check of { k : int }
  | A_spec
  | A_store
  | A_branch
  | A_load
  | A_alu

type op = {
  lat : int;
  opcode : Vp_ir.Opcode.t;
  srcs : int array;  (* dense register indices *)
  dst : int;  (* dense register index, -1 if none *)
  guard : int;  (* dense register index, -1 if unguarded *)
  guard_pol : bool;
  sync_bit : int;  (* LdPred / speculative ops, else -1 *)
  action : action;
  is_load : bool;
  executed : bool;  (* reference: did the original op run (predication)? *)
  result : int;  (* reference result of the original op *)
  correct_addr : int;  (* reference address, speculative loads only *)
  osrcs : osrc array;  (* CCE operand provenance, speculative ops only *)
  writeback : bool;  (* may the CCE write the register file? *)
}

type pred = {
  p_sync_bit : int;
  check_executed : bool;
  check_dst : int;  (* dense register index of the destination *)
  check_value : int;  (* reference result of the checked load *)
  dependents : int array;  (* speculative dependents, ascending ids *)
}

type t = {
  label : string;
  num_preds : int;
  new_n : int;
  ops : op array;
  preds : pred array;
  unresolved_init : int array;  (* per op: prediction-dependency count *)
  insn_ops : int array array;  (* static cycle -> op ids, ascending *)
  insn_spec : int array;  (* static cycle -> speculative ops in the insn *)
  insn_wait_bits : int array array;  (* static cycle -> wait-mask bit ids *)
  sync_words : int;
  nregs : int;
  reg_init : int array;  (* live-in value of each dense register *)
  final_pairs : (int * int) array;  (* (register, dense index), in order *)
  limit : int;
  horizon : int;  (* event-ring size: max latency + 2 *)
}

(* --- Compile phase --- *)

let compile (sb : Vp_vspec.Spec_block.t) ~(reference : Reference.t) ~live_in =
  let open Vp_vspec.Spec_block in
  let num_preds = Array.length sb.predicted in
  if reference.Reference.block != sb.original_block then
    if
      Vp_ir.Block.size reference.Reference.block
      <> Vp_ir.Block.size sb.original_block
    then invalid_arg "Compiled.compile: reference block mismatch";
  let block = sb.block in
  let new_n = Vp_ir.Block.size block in
  let k_count = num_preds in
  let orig_of i = i - k_count in
  let latency i = Vp_ir.Depgraph.latency sb.graph i in
  (* Dense register numbering over everything the engine can touch. *)
  let reg_ids = Hashtbl.create 64 in
  let reg_list = ref [] and nregs = ref 0 in
  let reg_of r =
    match Hashtbl.find_opt reg_ids r with
    | Some i -> i
    | None ->
        let i = !nregs in
        incr nregs;
        Hashtbl.replace reg_ids r i;
        reg_list := r :: !reg_list;
        i
  in
  let block_ops = Vp_ir.Block.ops block in
  Array.iter
    (fun (o : Vp_ir.Operation.t) ->
      List.iter (fun r -> ignore (reg_of r)) o.srcs;
      (match o.dst with Some r -> ignore (reg_of r) | None -> ());
      match o.guard with Some (p, _) -> ignore (reg_of p) | None -> ())
    block_ops;
  List.iter
    (fun (r, _) -> ignore (reg_of r))
    reference.Reference.final_regs;
  (* Per-prediction lookup: check id -> prediction index. *)
  let pred_of_check = Hashtbl.create 8 in
  Array.iter
    (fun (p : predicted_load) -> Hashtbl.replace pred_of_check p.check_id p.index)
    sb.predicted;
  let max_lat = ref 1 in
  let ops =
    Array.map
      (fun (o : Vp_ir.Operation.t) ->
        let i = o.id in
        let lat = latency i in
        if lat < 1 then invalid_arg "Compiled.compile: latency < 1";
        if lat > !max_lat then max_lat := lat;
        let is_spec = Vp_ir.Operation.is_speculative o in
        let executed =
          i >= k_count && reference.Reference.executed.(orig_of i)
        in
        let result = if i >= k_count then reference.Reference.results.(orig_of i) else 0 in
        let action =
          match o.form with
          | Vp_ir.Operation.Ldpred_of _ ->
              let k = i in
              let v_correct =
                reference.Reference.results.(orig_of sb.predicted.(k).check_id)
              in
              A_ldpred { k; v_correct; v_wrong = Alu.wrong_value v_correct }
          | Vp_ir.Operation.Check _ ->
              A_check { k = Hashtbl.find pred_of_check i }
          | Vp_ir.Operation.Speculative _ -> A_spec
          | Vp_ir.Operation.Normal | Vp_ir.Operation.Non_speculative -> (
              match o.opcode with
              | Vp_ir.Opcode.Store -> A_store
              | Vp_ir.Opcode.Branch -> A_branch
              | Vp_ir.Opcode.Load -> A_load
              | Vp_ir.Opcode.Ld_pred ->
                  assert false (* always carries Ldpred_of form *)
              | _ -> A_alu)
        in
        {
          lat;
          opcode = o.opcode;
          srcs = Array.of_list (List.map reg_of o.srcs);
          dst = (match o.dst with Some r -> reg_of r | None -> -1);
          guard = (match o.guard with Some (p, _) -> reg_of p | None -> -1);
          guard_pol = (match o.guard with Some (_, pol) -> pol | None -> true);
          sync_bit =
            (match Vp_ir.Operation.sets_sync_bit o with
            | Some b -> b
            | None -> -1);
          action;
          is_load = Vp_ir.Operation.is_load o;
          executed;
          result;
          correct_addr =
            (if is_spec && Vp_ir.Operation.is_load o then
               List.hd reference.Reference.operands.(orig_of i)
             else 0);
          osrcs =
            (if is_spec then
               Array.of_list
                 (List.map
                    (function
                      | Verified -> O_verified
                      | From_prediction k -> O_pred k
                      | From_spec s -> O_spec s)
                    sb.operand_sources.(i))
             else [||]);
          writeback = sb.cce_writeback.(i);
        })
      block_ops
  in
  let unresolved_init = Array.make new_n 0 in
  Array.iter
    (fun (o : Vp_ir.Operation.t) ->
      if Vp_ir.Operation.is_speculative o then
        unresolved_init.(o.id) <- List.length sb.pred_deps.(o.id))
    block_ops;
  (* Prediction k -> speculative dependents, in ascending op order (the
     engine's [Array.iter] over the block). *)
  let preds =
    Array.map
      (fun (p : predicted_load) ->
        let deps = ref [] in
        Array.iter
          (fun (o : Vp_ir.Operation.t) ->
            if
              Vp_ir.Operation.is_speculative o
              && List.mem p.index sb.pred_deps.(o.id)
            then deps := o.id :: !deps)
          block_ops;
        {
          p_sync_bit = p.sync_bit;
          check_executed =
            reference.Reference.executed.(orig_of p.check_id);
          check_dst = reg_of p.dest_reg;
          check_value = reference.Reference.results.(orig_of p.check_id);
          dependents = Array.of_list (List.rev !deps);
        })
      sb.predicted
  in
  let insns = Vp_sched.Schedule.instructions sb.schedule in
  let insn_ops =
    Array.map
      (fun l ->
        Array.of_list (List.map (fun (o : Vp_ir.Operation.t) -> o.id) l))
      insns
  in
  let insn_spec =
    Array.map
      (fun l ->
        List.length (List.filter Vp_ir.Operation.is_speculative l))
      insns
  in
  let insn_wait_bits =
    Array.init (Array.length insns) (fun c ->
        Array.of_list (Vp_util.Bitset.elements sb.wait_masks.(c)))
  in
  let sync_words =
    Array.fold_left
      (Array.fold_left (fun acc b -> max acc ((b / Sys.int_size) + 1)))
      (max 1 ((sb.sync_bits_used / Sys.int_size) + 1))
      insn_wait_bits
  in
  let reg_init = Array.make (max 1 !nregs) 0 in
  List.iter (fun r -> reg_init.(Hashtbl.find reg_ids r) <- live_in r) !reg_list;
  (* Every prediction must reach the machine through its LdPred or its
     check; one missing from the schedule could never be decided. *)
  let scheduled = Array.make num_preds false in
  Array.iter
    (Array.iter (fun i ->
         match ops.(i).action with
         | A_ldpred { k; _ } | A_check { k } -> scheduled.(k) <- true
         | _ -> ()))
    insn_ops;
  if Array.exists not scheduled then
    invalid_arg "Compiled.compile: prediction missing from the schedule";
  {
    label = Vp_ir.Block.label block;
    num_preds;
    new_n;
    ops;
    preds;
    unresolved_init;
    insn_ops;
    insn_spec;
    insn_wait_bits;
    sync_words;
    nregs = max 1 !nregs;
    reg_init;
    final_pairs =
      Array.of_list
        (List.map
           (fun (r, _) -> (r, Hashtbl.find reg_ids r))
           reference.Reference.final_regs);
    limit =
      (20 * (Vp_sched.Schedule.length sb.schedule + 10)) + (50 * new_n) + 200;
    horizon = !max_lat + 2;
  }

let num_predictions t = t.num_preds

(* --- Run phase: up to [Sys.int_size] outcome vectors per word ---

   Every per-scenario boolean of the machine (a sync bit, a taint flag, an
   outcome) is one machine word whose bit [i] tracks lane [i]; every
   per-scenario integer (a register value, an event time, a CCB slot) is a
   64-stride row of a Bigarray, so one pass over the compiled block
   advances all lanes together. Lanes share the global clock — each lane's
   row is exactly the state [Dual_engine.run] holds for that lane's
   vector, only the representation is shared — and a shared event calendar
   carries a lane mask per entry, appended in each lane's own order, so
   per-lane insertion order (the only order the results can observe) is
   preserved. Values are computed once per event when the source registers
   agree across the participating lanes ([reg_div] tracks which lanes have
   diverged from the shared [reg_base] value) and per lane otherwise. *)

(* Event tags. *)
let ev_write = 0 (* a = dense register, b = value *)
let ev_check = 1 (* a = prediction index *)
let ev_ovb = 2 (* a = prediction index *)
let ev_spec_known = 3 (* a = op id *)
let ev_cce = 4 (* a = op id, b = value *)
let ev_store = 5 (* a = address, b = value *)

let max_lanes = Sys.int_size
let lane_stride = 64

let[@inline] full_mask n = if n >= Sys.int_size then -1 else (1 lsl n) - 1

(* Index of the lowest set bit; [w] must be non-zero. *)
let[@inline] ctz w =
  let w = ref (w land -w) and n = ref 0 in
  if !w land 0xFFFFFFFF = 0 then begin n := !n + 32; w := !w lsr 32 end;
  if !w land 0xFFFF = 0 then begin n := !n + 16; w := !w lsr 16 end;
  if !w land 0xFF = 0 then begin n := !n + 8; w := !w lsr 8 end;
  if !w land 0xF = 0 then begin n := !n + 4; w := !w lsr 4 end;
  if !w land 0x3 = 0 then begin n := !n + 2; w := !w lsr 2 end;
  if !w land 0x1 = 0 then incr n;
  !n

module Lanes = struct
  type ba = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

  let ba_empty : ba = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 0

  type t = {
    (* register file: [reg_base] is authoritative for every lane whose bit
       is clear in [reg_div]; diverged lanes read their row of [reg_lane] *)
    mutable reg_lane : ba;  (* nregs x stride *)
    mutable reg_base : int array;
    mutable reg_div : int array;
    (* per (prediction, lane) / per (op, lane) integers *)
    mutable ovb_known : ba;
    mutable unresolved : ba;
    mutable spec_known : ba;
    mutable cce_time : ba;
    mutable captured : ba;
    (* per-scenario booleans, one lane word per index *)
    mutable sync_lane : int array;  (* per sync bit *)
    mutable tainted_w : int array;  (* per op *)
    mutable sched_w : int array;  (* per op: correct_known_scheduled *)
    mutable outcome_w : int array;  (* per prediction *)
    (* per-lane CCB rings, lane-major: lane [i] slot [j] at [i*cap + j] *)
    mutable ccb_cap : int;
    mutable ccb_s : ba;
    mutable ccb_t : ba;
    ccb_head : int array;
    ccb_len : int array;
    ccb_high : int array;
    (* per-lane store commits, lane-major *)
    mutable st_cap : int;
    mutable st_a : ba;
    mutable st_v : ba;
    st_n : int array;
    (* shared event calendar: 4 ints (tag, a, b, lane mask) per event *)
    mutable ev_buf : int array array;
    mutable ev_len : int array;
    pending : int array;
    (* per-lane accounting *)
    last_completion : int array;
    vliw_last : int array;
    stall : int array;
    flushed : int array;
    recomputed : int array;
    next_insn : int array;
  }

  let create () =
    {
      reg_lane = ba_empty;
      reg_base = [||];
      reg_div = [||];
      ovb_known = ba_empty;
      unresolved = ba_empty;
      spec_known = ba_empty;
      cce_time = ba_empty;
      captured = ba_empty;
      sync_lane = [||];
      tainted_w = [||];
      sched_w = [||];
      outcome_w = [||];
      ccb_cap = 0;
      ccb_s = ba_empty;
      ccb_t = ba_empty;
      ccb_head = Array.make lane_stride 0;
      ccb_len = Array.make lane_stride 0;
      ccb_high = Array.make lane_stride 0;
      st_cap = 0;
      st_a = ba_empty;
      st_v = ba_empty;
      st_n = Array.make lane_stride 0;
      ev_buf = [||];
      ev_len = [||];
      pending = Array.make lane_stride 0;
      last_completion = Array.make lane_stride 0;
      vliw_last = Array.make lane_stride 0;
      stall = Array.make lane_stride 0;
      flushed = Array.make lane_stride 0;
      recomputed = Array.make lane_stride 0;
      next_insn = Array.make lane_stride 0;
    }
end

module BA1 = Bigarray.Array1

let ba_ints n (ba : Lanes.ba) : Lanes.ba =
  if BA1.dim ba < n then BA1.create Bigarray.int Bigarray.c_layout n else ba

(* Grow (never shrink) the lane arena to the compiled block's needs. *)
let ensure_lanes (t : t) (la : Lanes.t) =
  let ints n arr = if Array.length arr < n then Array.make n 0 else arr in
  let rows n = n * lane_stride in
  la.Lanes.reg_lane <- ba_ints (rows t.nregs) la.Lanes.reg_lane;
  la.Lanes.reg_base <- ints t.nregs la.Lanes.reg_base;
  la.Lanes.reg_div <- ints t.nregs la.Lanes.reg_div;
  la.Lanes.ovb_known <- ba_ints (rows (max 1 t.num_preds)) la.Lanes.ovb_known;
  let n = max 1 t.new_n in
  la.Lanes.unresolved <- ba_ints (rows n) la.Lanes.unresolved;
  la.Lanes.spec_known <- ba_ints (rows n) la.Lanes.spec_known;
  la.Lanes.cce_time <- ba_ints (rows n) la.Lanes.cce_time;
  la.Lanes.captured <- ba_ints (rows n) la.Lanes.captured;
  la.Lanes.sync_lane <- ints (t.sync_words * Sys.int_size) la.Lanes.sync_lane;
  la.Lanes.tainted_w <- ints n la.Lanes.tainted_w;
  la.Lanes.sched_w <- ints n la.Lanes.sched_w;
  la.Lanes.outcome_w <- ints (max 1 t.num_preds) la.Lanes.outcome_w;
  if la.Lanes.ccb_cap < n then begin
    la.Lanes.ccb_cap <- n;
    la.Lanes.ccb_s <- BA1.create Bigarray.int Bigarray.c_layout (rows n);
    la.Lanes.ccb_t <- BA1.create Bigarray.int Bigarray.c_layout (rows n)
  end;
  if la.Lanes.st_cap < n then begin
    la.Lanes.st_cap <- n;
    la.Lanes.st_a <- BA1.create Bigarray.int Bigarray.c_layout (rows n);
    la.Lanes.st_v <- BA1.create Bigarray.int Bigarray.c_layout (rows n)
  end;
  if Array.length la.Lanes.ev_len < t.horizon then begin
    la.Lanes.ev_len <- Array.make t.horizon 0;
    la.Lanes.ev_buf <- Array.init t.horizon (fun _ -> Array.make 32 0)
  end

let[@inline] l_get (ba : Lanes.ba) slot lane =
  BA1.unsafe_get ba ((slot * lane_stride) + lane)

let[@inline] l_set (ba : Lanes.ba) slot lane v =
  BA1.unsafe_set ba ((slot * lane_stride) + lane) v

let[@inline] lreg_read (la : Lanes.t) r lane =
  if la.Lanes.reg_div.(r) land (1 lsl lane) <> 0 then l_get la.Lanes.reg_lane r lane
  else la.Lanes.reg_base.(r)

(* Write value [v] to register [r] for every lane in [mask]. A full-width
   write collapses the register back to uniform in O(1); so does a partial
   write that agrees with the shared value. *)
let lreg_write (la : Lanes.t) ~full r v mask =
  if mask = full then begin
    la.Lanes.reg_base.(r) <- v;
    la.Lanes.reg_div.(r) <- 0
  end
  else if v = la.Lanes.reg_base.(r) then
    la.Lanes.reg_div.(r) <- la.Lanes.reg_div.(r) land lnot mask
  else begin
    la.Lanes.reg_div.(r) <- la.Lanes.reg_div.(r) lor mask;
    let w = ref mask in
    while !w <> 0 do
      let i = ctz !w in
      l_set la.Lanes.reg_lane r i v;
      w := !w land (!w - 1)
    done
  end

let[@inline] l_complete (la : Lanes.t) now mask =
  let w = ref mask in
  while !w <> 0 do
    let i = ctz !w in
    if now > la.Lanes.last_completion.(i) then la.Lanes.last_completion.(i) <- now;
    w := !w land (!w - 1)
  done

let lev_append (t : t) (la : Lanes.t) time tag a b mask =
  let bkt = time mod t.horizon in
  let len = la.Lanes.ev_len.(bkt) in
  let buf = la.Lanes.ev_buf.(bkt) in
  let buf =
    if (4 * len) + 4 > Array.length buf then begin
      let nbuf = Array.make (max 32 (2 * Array.length buf)) 0 in
      Array.blit buf 0 nbuf 0 (4 * len);
      la.Lanes.ev_buf.(bkt) <- nbuf;
      nbuf
    end
    else buf
  in
  buf.(4 * len) <- tag;
  buf.((4 * len) + 1) <- a;
  buf.((4 * len) + 2) <- b;
  buf.((4 * len) + 3) <- mask;
  la.Lanes.ev_len.(bkt) <- len + 1;
  let w = ref mask in
  while !w <> 0 do
    let i = ctz !w in
    la.Lanes.pending.(i) <- la.Lanes.pending.(i) + 1;
    w := !w land (!w - 1)
  done

let lresolve_if_verified (t : t) (la : Lanes.t) now s mask =
  let z = ref 0 in
  let w = ref mask in
  while !w <> 0 do
    let i = ctz !w in
    if l_get la.Lanes.unresolved s i = 0 then z := !z lor (1 lsl i);
    w := !w land (!w - 1)
  done;
  let z = !z land lnot la.Lanes.tainted_w.(s) in
  if z <> 0 then begin
    let bit = t.ops.(s).sync_bit in
    la.Lanes.sync_lane.(bit) <- la.Lanes.sync_lane.(bit) land lnot z;
    let fresh = z land lnot la.Lanes.sched_w.(s) in
    if fresh <> 0 then begin
      la.Lanes.sched_w.(s) <- la.Lanes.sched_w.(s) lor fresh;
      lev_append t la (now + 1) ev_spec_known s 0 fresh
    end
  end

let lhandle_check_complete (t : t) (la : Lanes.t) ~full now k mask =
  let p = t.preds.(k) in
  la.Lanes.sync_lane.(p.p_sync_bit) <-
    la.Lanes.sync_lane.(p.p_sync_bit) land lnot mask;
  if p.check_executed then lreg_write la ~full p.check_dst p.check_value mask;
  l_complete la now mask;
  lev_append t la (now + 1) ev_ovb k 0 mask;
  let wrong = mask land lnot la.Lanes.outcome_w.(k) in
  let deps = p.dependents in
  for j = 0 to Array.length deps - 1 do
    let s = deps.(j) in
    let w = ref mask in
    while !w <> 0 do
      let i = ctz !w in
      l_set la.Lanes.unresolved s i (l_get la.Lanes.unresolved s i - 1);
      w := !w land (!w - 1)
    done;
    la.Lanes.tainted_w.(s) <- la.Lanes.tainted_w.(s) lor wrong;
    lresolve_if_verified t la now s mask
  done

let lhandle_event (t : t) (la : Lanes.t) ~full now tag a b mask =
  if tag = ev_write then begin
    lreg_write la ~full a b mask;
    l_complete la now mask
  end
  else if tag = ev_check then lhandle_check_complete t la ~full now a mask
  else if tag = ev_ovb then begin
    let w = ref mask in
    while !w <> 0 do
      let i = ctz !w in
      l_set la.Lanes.ovb_known a i now;
      w := !w land (!w - 1)
    done
  end
  else if tag = ev_spec_known then begin
    let w = ref mask in
    while !w <> 0 do
      let i = ctz !w in
      l_set la.Lanes.spec_known a i now;
      w := !w land (!w - 1)
    done
  end
  else if tag = ev_cce then begin
    let o = t.ops.(a) in
    let w = ref mask in
    while !w <> 0 do
      let i = ctz !w in
      l_set la.Lanes.cce_time a i now;
      w := !w land (!w - 1)
    done;
    la.Lanes.sync_lane.(o.sync_bit) <-
      la.Lanes.sync_lane.(o.sync_bit) land lnot mask;
    if o.writeback then lreg_write la ~full o.dst b mask;
    l_complete la now mask
  end
  else begin
    (* ev_store *)
    let w = ref mask in
    while !w <> 0 do
      let i = ctz !w in
      let n = la.Lanes.st_n.(i) in
      BA1.unsafe_set la.Lanes.st_a ((i * la.Lanes.st_cap) + n) a;
      BA1.unsafe_set la.Lanes.st_v ((i * la.Lanes.st_cap) + n) b;
      la.Lanes.st_n.(i) <- n + 1;
      w := !w land (!w - 1)
    done;
    l_complete la now mask
  end

(* One CCE head step for lane [i]: [true] if the head was retired. *)
let lcce_step (t : t) (la : Lanes.t) now i =
  if la.Lanes.ccb_len.(i) = 0 then false
  else begin
    let base = i * la.Lanes.ccb_cap in
    let head = la.Lanes.ccb_head.(i) in
    let s = BA1.unsafe_get la.Lanes.ccb_s (base + head) in
    let entry_time = BA1.unsafe_get la.Lanes.ccb_t (base + head) in
    if entry_time >= now then false
    else begin
      let o = t.ops.(s) in
      let bit = 1 lsl i in
      let known = ref true and correct = ref true in
      let os = o.osrcs in
      for j = 0 to Array.length os - 1 do
        if !known then
          match os.(j) with
          | O_verified -> ()
          | O_pred k ->
              if l_get la.Lanes.ovb_known k i <= now then begin
                if la.Lanes.outcome_w.(k) land bit = 0 then correct := false
              end
              else known := false
          | O_spec s' ->
              if l_get la.Lanes.spec_known s' i <= now then ()
              else if l_get la.Lanes.cce_time s' i <= now then correct := false
              else known := false
      done;
      if not !known then false
      else begin
        let nh = head + 1 in
        la.Lanes.ccb_head.(i) <- (if nh >= la.Lanes.ccb_cap then 0 else nh);
        la.Lanes.ccb_len.(i) <- la.Lanes.ccb_len.(i) - 1;
        if !correct then la.Lanes.flushed.(i) <- la.Lanes.flushed.(i) + 1
        else begin
          la.Lanes.recomputed.(i) <- la.Lanes.recomputed.(i) + 1;
          let value =
            if o.executed then o.result else l_get la.Lanes.captured s i
          in
          lev_append t la (now + o.lat) ev_cce s value bit
        end;
        true
      end
    end
  end

(* Lanes (within [mask]) whose guard is on, computed once when the guard
   register is uniform across them. *)
let lguard_mask (la : Lanes.t) (o : op) mask =
  if o.guard < 0 then mask
  else if la.Lanes.reg_div.(o.guard) land mask = 0 then
    if la.Lanes.reg_base.(o.guard) <> 0 = o.guard_pol then mask else 0
  else begin
    let g = ref 0 in
    let w = ref mask in
    while !w <> 0 do
      let i = ctz !w in
      if lreg_read la o.guard i <> 0 = o.guard_pol then g := !g lor (1 lsl i);
      w := !w land (!w - 1)
    done;
    !g
  end

(* Evaluate op [o]'s value and schedule its write for the lanes in [mask]:
   once when every source register is uniform, per lane otherwise. *)
let leval_and_schedule (t : t) (la : Lanes.t) now (o : op) mask =
  let time = now + o.lat in
  if o.is_load then begin
    let r0 = o.srcs.(0) in
    if la.Lanes.reg_div.(r0) land mask = 0 then
      lev_append t la time ev_write o.dst
        (Alu.load_result ~addr:la.Lanes.reg_base.(r0)
           ~correct_addr:o.correct_addr ~correct_value:o.result)
        mask
    else begin
      let w = ref mask in
      while !w <> 0 do
        let i = ctz !w in
        lev_append t la time ev_write o.dst
          (Alu.load_result ~addr:(lreg_read la r0 i)
             ~correct_addr:o.correct_addr ~correct_value:o.result)
          (1 lsl i);
        w := !w land (!w - 1)
      done
    end
  end
  else if Array.length o.srcs = 1 then begin
    let r0 = o.srcs.(0) in
    if la.Lanes.reg_div.(r0) land mask = 0 then
      lev_append t la time ev_write o.dst
        (Alu.eval1 o.opcode la.Lanes.reg_base.(r0))
        mask
    else begin
      let w = ref mask in
      while !w <> 0 do
        let i = ctz !w in
        lev_append t la time ev_write o.dst
          (Alu.eval1 o.opcode (lreg_read la r0 i))
          (1 lsl i);
        w := !w land (!w - 1)
      done
    end
  end
  else begin
    let r0 = o.srcs.(0) and r1 = o.srcs.(1) in
    if (la.Lanes.reg_div.(r0) lor la.Lanes.reg_div.(r1)) land mask = 0 then
      lev_append t la time ev_write o.dst
        (Alu.eval2 o.opcode la.Lanes.reg_base.(r0) la.Lanes.reg_base.(r1))
        mask
    else begin
      let w = ref mask in
      while !w <> 0 do
        let i = ctz !w in
        lev_append t la time ev_write o.dst
          (Alu.eval2 o.opcode (lreg_read la r0 i) (lreg_read la r1 i))
          (1 lsl i);
        w := !w land (!w - 1)
      done
    end
  end

let lissue_instruction (t : t) (la : Lanes.t) now c mask =
  let ids = t.insn_ops.(c) in
  for j = 0 to Array.length ids - 1 do
    let i = ids.(j) in
    let o = t.ops.(i) in
    let tc = now + o.lat in
    let w = ref mask in
    while !w <> 0 do
      let l = ctz !w in
      if tc > la.Lanes.last_completion.(l) then la.Lanes.last_completion.(l) <- tc;
      if tc > la.Lanes.vliw_last.(l) then la.Lanes.vliw_last.(l) <- tc;
      w := !w land (!w - 1)
    done;
    match o.action with
    | A_ldpred { k; v_correct; v_wrong } ->
        la.Lanes.sync_lane.(o.sync_bit) <-
          la.Lanes.sync_lane.(o.sync_bit) lor mask;
        let wc = mask land la.Lanes.outcome_w.(k) in
        let ww = mask land lnot la.Lanes.outcome_w.(k) in
        if wc <> 0 then lev_append t la tc ev_write o.dst v_correct wc;
        if ww <> 0 then lev_append t la tc ev_write o.dst v_wrong ww
    | A_check { k } -> lev_append t la tc ev_check k 0 mask
    | A_spec ->
        la.Lanes.sync_lane.(o.sync_bit) <-
          la.Lanes.sync_lane.(o.sync_bit) lor mask;
        (if la.Lanes.reg_div.(o.dst) land mask = 0 then begin
           let v = la.Lanes.reg_base.(o.dst) in
           let w = ref mask in
           while !w <> 0 do
             let l = ctz !w in
             l_set la.Lanes.captured i l v;
             w := !w land (!w - 1)
           done
         end
         else begin
           let w = ref mask in
           while !w <> 0 do
             let l = ctz !w in
             l_set la.Lanes.captured i l (lreg_read la o.dst l);
             w := !w land (!w - 1)
           done
         end);
        let g = lguard_mask la o mask in
        if g <> 0 then leval_and_schedule t la now o g;
        let w = ref mask in
        while !w <> 0 do
          let l = ctz !w in
          let len = la.Lanes.ccb_len.(l) in
          let tail = la.Lanes.ccb_head.(l) + len in
          let tail = if tail >= la.Lanes.ccb_cap then tail - la.Lanes.ccb_cap else tail in
          BA1.unsafe_set la.Lanes.ccb_s ((l * la.Lanes.ccb_cap) + tail) i;
          BA1.unsafe_set la.Lanes.ccb_t ((l * la.Lanes.ccb_cap) + tail) now;
          la.Lanes.ccb_len.(l) <- len + 1;
          if len + 1 > la.Lanes.ccb_high.(l) then la.Lanes.ccb_high.(l) <- len + 1;
          w := !w land (!w - 1)
        done;
        lresolve_if_verified t la now i mask
    | A_store ->
        let g = lguard_mask la o mask in
        if g <> 0 then begin
          let r0 = o.srcs.(0) and r1 = o.srcs.(1) in
          if (la.Lanes.reg_div.(r0) lor la.Lanes.reg_div.(r1)) land g = 0 then
            lev_append t la tc ev_store la.Lanes.reg_base.(r0)
              la.Lanes.reg_base.(r1) g
          else begin
            let w = ref g in
            while !w <> 0 do
              let l = ctz !w in
              lev_append t la tc ev_store (lreg_read la r0 l) (lreg_read la r1 l)
                (1 lsl l);
              w := !w land (!w - 1)
            done
          end
        end
    | A_branch -> ()
    | A_load ->
        let g = lguard_mask la o mask in
        if g <> 0 then lev_append t la tc ev_write o.dst o.result g
    | A_alu ->
        let g = lguard_mask la o mask in
        if g <> 0 then leval_and_schedule t la now o g
  done

(* Reset lanes [0..n-1] only: state beyond lane [n-1] is never read (every
   hot-loop mask is bounded by [full_mask n]), and a short word would
   otherwise pay the full 64-lane row width on every run. *)
let reset_lanes (t : t) (la : Lanes.t) n =
  Array.blit t.reg_init 0 la.Lanes.reg_base 0 t.nregs;
  Array.fill la.Lanes.reg_div 0 t.nregs 0;
  Array.fill la.Lanes.sync_lane 0 (Array.length la.Lanes.sync_lane) 0;
  Array.fill la.Lanes.tainted_w 0 t.new_n 0;
  Array.fill la.Lanes.sched_w 0 t.new_n 0;
  for s = 0 to t.num_preds - 1 do
    let base = s * lane_stride in
    for idx = base to base + n - 1 do
      BA1.unsafe_set la.Lanes.ovb_known idx max_int
    done
  done;
  for s = 0 to t.new_n - 1 do
    let u = t.unresolved_init.(s) in
    let base = s * lane_stride in
    for idx = base to base + n - 1 do
      BA1.unsafe_set la.Lanes.unresolved idx u;
      BA1.unsafe_set la.Lanes.spec_known idx max_int;
      BA1.unsafe_set la.Lanes.cce_time idx max_int;
      BA1.unsafe_set la.Lanes.captured idx 0
    done
  done;
  Array.fill la.Lanes.ccb_head 0 n 0;
  Array.fill la.Lanes.ccb_len 0 n 0;
  Array.fill la.Lanes.ccb_high 0 n 0;
  Array.fill la.Lanes.st_n 0 n 0;
  Array.fill la.Lanes.ev_len 0 (Array.length la.Lanes.ev_len) 0;
  Array.fill la.Lanes.pending 0 n 0;
  Array.fill la.Lanes.last_completion 0 n 0;
  Array.fill la.Lanes.vliw_last 0 n 0;
  Array.fill la.Lanes.stall 0 n 0;
  Array.fill la.Lanes.flushed 0 n 0;
  Array.fill la.Lanes.recomputed 0 n 0;
  Array.fill la.Lanes.next_insn 0 n 0

(* The [Dual_engine.Deadlock] that [Dual_engine.run] raises at cycle [now]
   for lane [i]'s vector: the lane's row is that run's machine state. *)
let lane_deadlock (t : t) (la : Lanes.t) ~now i =
  let head =
    if la.Lanes.ccb_len.(i) = 0 then "none"
    else
      let slot = (i * la.Lanes.ccb_cap) + la.Lanes.ccb_head.(i) in
      Printf.sprintf "op %d (entered %d)"
        (BA1.unsafe_get la.Lanes.ccb_s slot)
        (BA1.unsafe_get la.Lanes.ccb_t slot)
  in
  let bits = ref [] in
  for b = (t.sync_words * Sys.int_size) - 1 downto 0 do
    if la.Lanes.sync_lane.(b) land (1 lsl i) <> 0 then bits := b :: !bits
  done;
  Dual_engine.Deadlock
    (Printf.sprintf
       "block %s: no progress by cycle %d (insn %d/%d, %d pending events, \
        CCB %d head %s, sync {%s})"
       t.label now la.Lanes.next_insn.(i)
       (Array.length t.insn_ops)
       la.Lanes.pending.(i) la.Lanes.ccb_len.(i) head
       (String.concat "," (List.map string_of_int !bits)))

(* Simulate lanes 0..n-1 against vectors.(off..off+n-1) to completion.
   A lane still live past the deadlock limit deadlocks; the lowest such
   lane raises, as [Dual_engine.run] on its vector would. *)
let run_lanes (t : t) (la : Lanes.t) ~ccb_capacity ~cce_retire_width
    (vectors : Scenario.t array) off n =
  let full = full_mask n in
  for k = 0 to t.num_preds - 1 do
    let w = ref 0 in
    for i = 0 to n - 1 do
      if vectors.(off + i).(k) then w := !w lor (1 lsl i)
    done;
    la.Lanes.outcome_w.(k) <- !w
  done;
  reset_lanes t la n;
  let num_insns = Array.length t.insn_ops in
  let active = ref (if num_insns > 0 then full else 0) in
  let now = ref 0 in
  while !active <> 0 do
    if !now > t.limit then raise (lane_deadlock t la ~now:!now (ctz !active));
    (* 1. Completions scheduled for this cycle (insertion order). *)
    let b = !now mod t.horizon in
    let n_ev = la.Lanes.ev_len.(b) in
    if n_ev > 0 then begin
      let buf = la.Lanes.ev_buf.(b) in
      for j = 0 to n_ev - 1 do
        let m = buf.((4 * j) + 3) in
        let w = ref m in
        while !w <> 0 do
          let i = ctz !w in
          la.Lanes.pending.(i) <- la.Lanes.pending.(i) - 1;
          w := !w land (!w - 1)
        done;
        lhandle_event t la ~full !now
          buf.(4 * j)
          buf.((4 * j) + 1)
          buf.((4 * j) + 2)
          m
      done;
      la.Lanes.ev_len.(b) <- 0
    end;
    (* 2. CCE: up to [cce_retire_width] head retirements per lane. *)
    let w = ref !active in
    while !w <> 0 do
      let i = ctz !w in
      if la.Lanes.ccb_len.(i) > 0 then begin
        let budget = ref cce_retire_width in
        while !budget > 0 && lcce_step t la !now i do
          decr budget
        done
      end;
      w := !w land (!w - 1)
    done;
    (* 3. VLIW issue, frontier-grouped: lanes whose timing has diverged
       sit at different static cycles; group the frontier by instruction
       and issue each group with one pass over its ops. *)
    let rem = ref 0 in
    let w = ref !active in
    while !w <> 0 do
      let i = ctz !w in
      if la.Lanes.next_insn.(i) < num_insns then rem := !rem lor (1 lsl i);
      w := !w land (!w - 1)
    done;
    while !rem <> 0 do
      let c = la.Lanes.next_insn.(ctz !rem) in
      let members = ref 0 in
      let w2 = ref !rem in
      while !w2 <> 0 do
        let i = ctz !w2 in
        if la.Lanes.next_insn.(i) = c then members := !members lor (1 lsl i);
        w2 := !w2 land (!w2 - 1)
      done;
      rem := !rem land lnot !members;
      let stalled = ref 0 in
      let wb = t.insn_wait_bits.(c) in
      for j = 0 to Array.length wb - 1 do
        stalled := !stalled lor la.Lanes.sync_lane.(wb.(j))
      done;
      let go0 = !members land lnot !stalled in
      let go = ref go0 in
      let spec_n = t.insn_spec.(c) in
      if spec_n > 0 && go0 <> 0 then begin
        go := 0;
        let w3 = ref go0 in
        while !w3 <> 0 do
          let i = ctz !w3 in
          if la.Lanes.ccb_len.(i) + spec_n <= ccb_capacity then
            go := !go lor (1 lsl i);
          w3 := !w3 land (!w3 - 1)
        done
      end;
      let no_go = !members land lnot !go in
      let w4 = ref no_go in
      while !w4 <> 0 do
        let i = ctz !w4 in
        la.Lanes.stall.(i) <- la.Lanes.stall.(i) + 1;
        w4 := !w4 land (!w4 - 1)
      done;
      if !go <> 0 then begin
        lissue_instruction t la !now c !go;
        let w5 = ref !go in
        while !w5 <> 0 do
          let i = ctz !w5 in
          la.Lanes.next_insn.(i) <- c + 1;
          w5 := !w5 land (!w5 - 1)
        done
      end
    done;
    incr now;
    (* 4. Retire lanes with no instructions, events or CCB work left. *)
    let w6 = ref !active in
    while !w6 <> 0 do
      let i = ctz !w6 in
      if
        la.Lanes.next_insn.(i) >= num_insns
        && la.Lanes.pending.(i) = 0
        && la.Lanes.ccb_len.(i) = 0
      then active := !active land lnot (1 lsl i);
      w6 := !w6 land (!w6 - 1)
    done
  done

let extract_lane (t : t) (la : Lanes.t) ~outcomes lane : Dual_engine.result =
  let final_regs = ref [] in
  for j = Array.length t.final_pairs - 1 downto 0 do
    let r, idx = t.final_pairs.(j) in
    final_regs := (r, lreg_read la idx lane) :: !final_regs
  done;
  let stores = ref [] in
  for j = la.Lanes.st_n.(lane) - 1 downto 0 do
    stores :=
      ( BA1.unsafe_get la.Lanes.st_a ((lane * la.Lanes.st_cap) + j),
        BA1.unsafe_get la.Lanes.st_v ((lane * la.Lanes.st_cap) + j) )
      :: !stores
  done;
  {
    Dual_engine.cycles = la.Lanes.last_completion.(lane);
    vliw_cycles = la.Lanes.vliw_last.(lane);
    stall_cycles = la.Lanes.stall.(lane);
    flushed = la.Lanes.flushed.(lane);
    recomputed = la.Lanes.recomputed.(lane);
    ccb_high_water = la.Lanes.ccb_high.(lane);
    mispredicted = t.num_preds - Scenario.count_correct outcomes;
    final_regs = !final_regs;
    stores = !stores;
  }

let run_bitset ?(ccb_capacity = max_int) ?(cce_retire_width = 1)
    ?(on_word = ignore) (t : t) (la : Lanes.t) ~(vectors : Scenario.t array) :
    Dual_engine.result array =
  if cce_retire_width < 1 then
    invalid_arg "Compiled.run_bitset: cce_retire_width < 1";
  Array.iter
    (fun v ->
      if Array.length v <> t.num_preds then
        invalid_arg "Compiled.run_bitset: outcomes length mismatch")
    vectors;
  let nvec = Array.length vectors in
  if nvec = 0 then [||]
  else begin
    ensure_lanes t la;
    (* Collapse duplicate outcome vectors to one lane each: Monte-Carlo
       batches repeat vectors freely, and the engine is deterministic, so
       duplicates share a result record.
       First-occurrence order is preserved, which keeps the deadlock
       order: words run in order and the lowest live lane raises, so the
       first deadlocking vector in input order wins, duplicates of an
       earlier failure failing no earlier. *)
    let tbl = Hashtbl.create (2 * nvec) in
    let u_of = Array.make nvec 0 in
    let nu = ref 0 in
    for i = 0 to nvec - 1 do
      match Hashtbl.find_opt tbl vectors.(i) with
      | Some u -> u_of.(i) <- u
      | None ->
          Hashtbl.add tbl vectors.(i) !nu;
          u_of.(i) <- !nu;
          incr nu
    done;
    let nu = !nu in
    let uvecs = Array.make nu vectors.(0) in
    for i = nvec - 1 downto 0 do
      uvecs.(u_of.(i)) <- vectors.(i)
    done;
    let u_res = Array.make nu None in
    let off = ref 0 in
    while !off < nu do
      let n = min max_lanes (nu - !off) in
      run_lanes t la ~ccb_capacity ~cce_retire_width uvecs !off n;
      on_word n;
      for i = 0 to n - 1 do
        u_res.(!off + i) <-
          Some (extract_lane t la ~outcomes:uvecs.(!off + i) i)
      done;
      off := !off + n
    done;
    Array.init nvec (fun i ->
        match u_res.(u_of.(i)) with Some r -> r | None -> assert false)
  end
