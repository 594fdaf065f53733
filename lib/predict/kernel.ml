(* Direct-style predictor kernels over flat value arenas.

   Profiling sweeps run the predictors over millions of stream values, so
   these kernels keep each state machine in a plain record with an
   integer sentinel for "no prediction" (no [int option] boxing, no
   closure call per [predict]/[update]) and compute every requested
   predictor's hit count in a single pass over an [int array]. The
   closure-record predictors in test/predictor_ref.ml are the semantic
   oracle (see test/test_predict.ml's kernel-vs-reference property). *)

let no_prediction = min_int

(* Sentinel encoding: [no_prediction] stands for [None] wherever a *value*
   (or FCM table entry) is stored, so arenas must never contain [min_int] —
   generated value streams stay far inside the int range. Deltas can't use
   the sentinel trick safely (a delta is a difference of two arbitrary
   values), so stride state carries explicit [bool] presence flags. *)

type last_s = { mutable lv : int }

type stride_s = {
  mutable s_last : int;
  mutable s_has_last : bool;
  mutable s_last_delta : int;
  mutable s_has_delta : bool;
  mutable s_confirmed : int;
  mutable s_has_confirmed : bool;
}

type fcm_s = {
  f_order : int;
  f_mask : int;
  f_history : int array; (* circular, most recent at [(head-1) mod order] *)
  mutable f_fill : int; (* values observed, saturates at order *)
  mutable f_head : int; (* next write position *)
  f_table : int array; (* slot live iff its stamp matches the epoch *)
  f_stamp : int array; (* epoch stamp per slot *)
  mutable f_epoch : int; (* bumped by reset: an O(1) table clear *)
}

type dfcm_s = { d_fcm : fcm_s; mutable d_last : int; mutable d_has_last : bool }

type hybrid_s = {
  h_stride : stride_s;
  h_fcm : fcm_s;
  mutable h_stride_hits : int;
  mutable h_fcm_hits : int;
}

type t =
  | Last of last_s
  | Stride of stride_s
  | Fcm of fcm_s
  | Dfcm of dfcm_s
  | Hybrid of hybrid_s

let make_stride () =
  {
    s_last = 0;
    s_has_last = false;
    s_last_delta = 0;
    s_has_delta = false;
    s_confirmed = 0;
    s_has_confirmed = false;
  }

let make_fcm ~order ~table_bits =
  if order < 1 then invalid_arg "Kernel.create: order < 1";
  if table_bits < 4 || table_bits > 24 then
    invalid_arg "Kernel.create: table_bits out of [4, 24]";
  {
    f_order = order;
    f_mask = (1 lsl table_bits) - 1;
    f_history = Array.make order 0;
    f_fill = 0;
    f_head = 0;
    f_table = Array.make (1 lsl table_bits) no_prediction;
    f_stamp = Array.make (1 lsl table_bits) 0;
    f_epoch = 1;
  }

let create = function
  | Predictor.Last_value -> Last { lv = no_prediction }
  | Predictor.Stride -> Stride (make_stride ())
  | Predictor.Fcm { order; table_bits } -> Fcm (make_fcm ~order ~table_bits)
  | Predictor.Dfcm { order; table_bits } ->
      Dfcm { d_fcm = make_fcm ~order ~table_bits; d_last = 0; d_has_last = false }
  | Predictor.Hybrid_stride_fcm { order; table_bits } ->
      Hybrid
        {
          h_stride = make_stride ();
          h_fcm = make_fcm ~order ~table_bits;
          h_stride_hits = 0;
          h_fcm_hits = 0;
        }

let reset_stride s =
  s.s_has_last <- false;
  s.s_has_delta <- false;
  s.s_has_confirmed <- false

(* Epoch bump instead of an [O(table)] fill: every live slot's stamp stops
   matching, which is exactly an empty table. The tagged VP table resets a
   slot's kernel on every aliasing eviction, so this must stay O(1). *)
let reset_fcm f =
  f.f_fill <- 0;
  f.f_head <- 0;
  f.f_epoch <- f.f_epoch + 1

let reset = function
  | Last s -> s.lv <- no_prediction
  | Stride s -> reset_stride s
  | Fcm f -> reset_fcm f
  | Dfcm d ->
      reset_fcm d.d_fcm;
      d.d_has_last <- false
  | Hybrid h ->
      reset_stride h.h_stride;
      reset_fcm h.h_fcm;
      h.h_stride_hits <- 0;
      h.h_fcm_hits <- 0

(* Same hash as the reference FCM's [mix]/[signature] in
   test/predictor_ref.ml — the kernels must index the same table slots to
   stay bit-equivalent. *)
let[@inline] mix h v =
  let h = h lxor (v * 0x9E3779B1) in
  let h = (h lxor (h lsr 15)) * 0x85EBCA77 in
  h lxor (h lsr 13)

let signature f =
  let h = ref 0x12345 in
  for i = 0 to f.f_order - 1 do
    let pos = (f.f_head + i) mod f.f_order in
    h := mix !h f.f_history.(pos)
  done;
  !h land f.f_mask

let[@inline] predict_stride s =
  if s.s_has_last then
    s.s_last + (if s.s_has_confirmed then s.s_confirmed else 0)
  else no_prediction

let[@inline] predict_fcm f =
  if f.f_fill >= f.f_order then begin
    let sg = signature f in
    if f.f_stamp.(sg) = f.f_epoch then f.f_table.(sg) else no_prediction
  end
  else no_prediction

(* DFCM's table holds strides; the epoch stamps mark empty slots, so even
   a stored stride equal to [min_int] cannot be misread as one. *)
let[@inline] predict_dfcm d =
  if d.d_has_last then
    let stride = predict_fcm d.d_fcm in
    if stride = no_prediction then no_prediction else d.d_last + stride
  else no_prediction

let predict = function
  | Last s -> s.lv
  | Stride s -> predict_stride s
  | Fcm f -> predict_fcm f
  | Dfcm d -> predict_dfcm d
  | Hybrid h ->
      let stride_better = h.h_stride_hits >= h.h_fcm_hits in
      let primary =
        if stride_better then predict_stride h.h_stride
        else predict_fcm h.h_fcm
      in
      if primary <> no_prediction then primary
      else if stride_better then predict_fcm h.h_fcm
      else predict_stride h.h_stride

let[@inline] update_stride s v =
  if s.s_has_last then begin
    let delta = v - s.s_last in
    if s.s_has_delta && s.s_last_delta = delta then begin
      s.s_confirmed <- delta;
      s.s_has_confirmed <- true
    end;
    s.s_last_delta <- delta;
    s.s_has_delta <- true
  end;
  s.s_last <- v;
  s.s_has_last <- true

let[@inline] update_fcm f v =
  if f.f_fill >= f.f_order then begin
    let sg = signature f in
    f.f_table.(sg) <- v;
    f.f_stamp.(sg) <- f.f_epoch
  end;
  f.f_history.(f.f_head) <- v;
  f.f_head <- (f.f_head + 1) mod f.f_order;
  if f.f_fill < f.f_order then f.f_fill <- f.f_fill + 1

let update t v =
  match t with
  | Last s -> s.lv <- v
  | Stride s -> update_stride s v
  | Fcm f -> update_fcm f v
  | Dfcm d ->
      if d.d_has_last then update_fcm d.d_fcm (v - d.d_last);
      d.d_last <- v;
      d.d_has_last <- true
  | Hybrid h ->
      let sp = predict_stride h.h_stride in
      if sp <> no_prediction && sp = v then
        h.h_stride_hits <- h.h_stride_hits + 1;
      let fp = predict_fcm h.h_fcm in
      if fp <> no_prediction && fp = v then h.h_fcm_hits <- h.h_fcm_hits + 1;
      update_stride h.h_stride v;
      update_fcm h.h_fcm v

let hit_counts ~kinds values ~off ~len =
  if off < 0 || len < 0 || off + len > Array.length values then
    invalid_arg "Kernel.hit_counts: range out of bounds";
  let states = Array.of_list (List.map create kinds) in
  let n = Array.length states in
  let hits = Array.make n 0 in
  for i = off to off + len - 1 do
    let v = Array.unsafe_get values i in
    for j = 0 to n - 1 do
      let s = Array.unsafe_get states j in
      let p = predict s in
      if p <> no_prediction && p = v then
        Array.unsafe_set hits j (Array.unsafe_get hits j + 1);
      update s v
    done
  done;
  hits

let accuracies ~kinds values ~off ~len =
  let hits = hit_counts ~kinds values ~off ~len in
  if len = 0 then Array.map (fun _ -> 0.0) hits
  else Array.map (fun h -> float_of_int h /. float_of_int len) hits

(* --- Reusable pass: the zero-allocation profiling driver --- *)

(* [hit_counts] builds fresh kernel states per call; for an FCM kind that
   means allocating and clearing a whole table per profiled load. A [pass]
   preallocates the states once and replays any number of value ranges
   through them. For the paper's profiling pair — Stride followed by an
   order-2 FCM — the pass runs a fused loop with the state machines
   inlined (no per-value variant dispatch, the signature hashed once for
   the predict and the table write) over an {e epoch-stamped} table: a
   slot is live only if its stamp matches the current run's epoch, so the
   per-run reset is a counter bump instead of an [O(table)] clear. *)

type fused = {
  z_stride : stride_s;
  z_mask : int;
  z_table : int array;
  z_stamp : int array; (* slot live iff stamp = epoch *)
  mutable z_epoch : int;
  mutable z_h0 : int; (* order-2 history *)
  mutable z_h1 : int;
  mutable z_head : int;
  mutable z_fill : int;
}

type pass = {
  p_states : t array; (* generic path; also validates the kinds *)
  p_hits : int array;
  mutable p_len : int;
  p_fused : fused option;
}

let make_pass ~kinds =
  let states = Array.of_list (List.map create kinds) in
  let fused =
    match kinds with
    | [ Predictor.Stride; Predictor.Fcm { order = 2; table_bits } ] ->
        Some
          {
            z_stride = make_stride ();
            z_mask = (1 lsl table_bits) - 1;
            z_table = Array.make (1 lsl table_bits) no_prediction;
            z_stamp = Array.make (1 lsl table_bits) 0;
            z_epoch = 0;
            z_h0 = 0;
            z_h1 = 0;
            z_head = 0;
            z_fill = 0;
          }
    | _ -> None
  in
  {
    p_states = states;
    p_hits = Array.make (Array.length states) 0;
    p_len = 0;
    p_fused = fused;
  }

let run_pass p values ~off ~len =
  if off < 0 || len < 0 || off + len > Array.length values then
    invalid_arg "Kernel.run_pass: range out of bounds";
  p.p_len <- len;
  match p.p_fused with
  | Some z ->
      let s = z.z_stride in
      s.s_has_last <- false;
      s.s_has_delta <- false;
      s.s_has_confirmed <- false;
      z.z_epoch <- z.z_epoch + 1;
      z.z_head <- 0;
      z.z_fill <- 0;
      let epoch = z.z_epoch in
      let table = z.z_table and stamp = z.z_stamp and mask = z.z_mask in
      let hits0 = ref 0 and hits1 = ref 0 in
      for i = off to off + len - 1 do
        let v = Array.unsafe_get values i in
        (* stride predict ([no_prediction] only when no last value) *)
        (if s.s_has_last then
           let pv =
             s.s_last + (if s.s_has_confirmed then s.s_confirmed else 0)
           in
           if pv = v then incr hits0);
        (* FCM predict and table update share one signature: the history
           is unchanged between the generic predict and update calls, so
           both hash to the same slot. *)
        (if z.z_fill >= 2 then begin
           let older = if z.z_head = 0 then z.z_h0 else z.z_h1 in
           let newer = if z.z_head = 0 then z.z_h1 else z.z_h0 in
           let sg = mix (mix 0x12345 older) newer land mask in
           if
             Array.unsafe_get stamp sg = epoch
             && Array.unsafe_get table sg = v
           then incr hits1;
           Array.unsafe_set table sg v;
           Array.unsafe_set stamp sg epoch
         end);
        (* stride update *)
        (if s.s_has_last then begin
           let delta = v - s.s_last in
           if s.s_has_delta && s.s_last_delta = delta then begin
             s.s_confirmed <- delta;
             s.s_has_confirmed <- true
           end;
           s.s_last_delta <- delta;
           s.s_has_delta <- true
         end);
        s.s_last <- v;
        s.s_has_last <- true;
        (* FCM history update *)
        if z.z_head = 0 then begin
          z.z_h0 <- v;
          z.z_head <- 1
        end
        else begin
          z.z_h1 <- v;
          z.z_head <- 0
        end;
        if z.z_fill < 2 then z.z_fill <- z.z_fill + 1
      done;
      p.p_hits.(0) <- !hits0;
      p.p_hits.(1) <- !hits1
  | None ->
      let states = p.p_states in
      let n = Array.length states in
      for j = 0 to n - 1 do
        reset (Array.unsafe_get states j)
      done;
      Array.fill p.p_hits 0 n 0;
      for i = off to off + len - 1 do
        let v = Array.unsafe_get values i in
        for j = 0 to n - 1 do
          let st = Array.unsafe_get states j in
          let pv = predict st in
          if pv <> no_prediction && pv = v then
            Array.unsafe_set p.p_hits j (Array.unsafe_get p.p_hits j + 1);
          update st v
        done
      done

let pass_size p = Array.length p.p_states

let pass_hit p j =
  if j < 0 || j >= Array.length p.p_hits then
    invalid_arg "Kernel.pass_hit: index out of range";
  p.p_hits.(j)

let pass_rate p j =
  let h = pass_hit p j in
  if p.p_len = 0 then 0.0 else float_of_int h /. float_of_int p.p_len

(* --- Slot sequence: the VP-table fast lane --- *)

(* One table entry's whole predict-and-train sequence in a single call.
   Per touch this is exactly [Vp_table]'s per-execution protocol against a
   settled entry: predict, gate on confidence, record the confidence
   hit/miss from the raw prediction, train, emit whether the (gated)
   prediction was made and correct. The trace simulator's slot batches
   replay thousands of touches per call, so the hybrid default gets a
   fused loop (component predictions computed once per touch, the FCM
   signature hashed once for the predict and the table write, no variant
   dispatch); every other kind runs the generic state machines. *)

let seq_generic t ~conf ~use_confidence values ~len ~correct =
  for k = 0 to len - 1 do
    let v = Array.unsafe_get values k in
    let p = predict t in
    let made =
      p <> no_prediction && ((not use_confidence) || Confidence.confident conf)
    in
    if p <> no_prediction then
      if p = v then Confidence.record_hit conf
      else Confidence.record_miss conf;
    update t v;
    Bytes.unsafe_set correct k (if made && p = v then '\001' else '\000')
  done

(* Hybrid stride + order-2 FCM, the table's default kind, fully inlined. *)
let seq_hybrid2 h ~conf ~use_confidence values ~len ~correct =
  let s = h.h_stride in
  let f = h.h_fcm in
  let hist = f.f_history
  and table = f.f_table
  and stamp = f.f_stamp
  and mask = f.f_mask
  and epoch = f.f_epoch in
  for k = 0 to len - 1 do
    let v = Array.unsafe_get values k in
    let sp =
      if s.s_has_last then
        s.s_last + (if s.s_has_confirmed then s.s_confirmed else 0)
      else no_prediction
    in
    let full = f.f_fill >= 2 in
    let sg =
      if full then
        mix
          (mix 0x12345 (Array.unsafe_get hist f.f_head))
          (Array.unsafe_get hist (1 - f.f_head))
        land mask
      else 0
    in
    let fp =
      if full && Array.unsafe_get stamp sg = epoch then
        Array.unsafe_get table sg
      else no_prediction
    in
    let p =
      if h.h_stride_hits >= h.h_fcm_hits then
        if sp <> no_prediction then sp else fp
      else if fp <> no_prediction then fp
      else sp
    in
    let made =
      p <> no_prediction && ((not use_confidence) || Confidence.confident conf)
    in
    if p <> no_prediction then
      if p = v then Confidence.record_hit conf
      else Confidence.record_miss conf;
    (* hybrid update: component hit counters, then both state machines *)
    if sp <> no_prediction && sp = v then
      h.h_stride_hits <- h.h_stride_hits + 1;
    if fp <> no_prediction && fp = v then h.h_fcm_hits <- h.h_fcm_hits + 1;
    (if s.s_has_last then begin
       let delta = v - s.s_last in
       if s.s_has_delta && s.s_last_delta = delta then begin
         s.s_confirmed <- delta;
         s.s_has_confirmed <- true
       end;
       s.s_last_delta <- delta;
       s.s_has_delta <- true
     end);
    s.s_last <- v;
    s.s_has_last <- true;
    (* The FCM table write reuses the predict's signature: the history is
       unchanged in between, so both hash to the same slot. *)
    if full then begin
      Array.unsafe_set table sg v;
      Array.unsafe_set stamp sg epoch
    end;
    Array.unsafe_set hist f.f_head v;
    f.f_head <- 1 - f.f_head;
    if f.f_fill < 2 then f.f_fill <- f.f_fill + 1;
    Bytes.unsafe_set correct k (if made && p = v then '\001' else '\000')
  done

let seq_predict_train t ~conf ~use_confidence values ~len ~correct =
  if len < 0 || len > Array.length values || len > Bytes.length correct then
    invalid_arg "Kernel.seq_predict_train: range out of bounds";
  match t with
  | Hybrid h when h.h_fcm.f_order = 2 ->
      seq_hybrid2 h ~conf ~use_confidence values ~len ~correct
  | _ -> seq_generic t ~conf ~use_confidence values ~len ~correct
