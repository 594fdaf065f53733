(* Closure-record value predictors: the reference implementation of every
   [Vp_predict.Predictor.kind].

   Each predictor keeps its state in an ordinary record with [int option]
   values and is packaged behind a record of closures. This is the
   readable statement of the state machines; [Vp_predict.Kernel]
   re-implements them unboxed for the profiling hot path, and
   test_predict.ml pins the kernels to these closures on random value
   sequences. *)

type t = {
  predict : unit -> int option;
      (* [None] when the predictor has no basis for a prediction yet (a
         cold entry) — counted as a misprediction by [accuracy] *)
  update : int -> unit;
  reset : unit -> unit;
}

(* Last-value prediction (Lipasti & Shen): predict the previous value. *)
module Last_value = struct
  type s = { mutable last : int option }

  let create () = { last = None }
  let predict t = t.last
  let update t v = t.last <- Some v
  let reset t = t.last <- None
end

(* Two-delta stride prediction (Eickemeyer & Vassiliadis): predict
   [last + confirmed]. The confirmed stride is replaced only when the same
   delta is seen twice in a row, so a one-off jump (a pointer rewind at
   the end of a row) does not poison it. *)
module Stride = struct
  type s = {
    mutable last : int option;
    mutable last_delta : int option;
    mutable confirmed : int option;
  }

  let create () = { last = None; last_delta = None; confirmed = None }

  let predict t =
    match t.last with
    | None -> None
    | Some last -> Some (last + Option.value ~default:0 t.confirmed)

  let update t v =
    (match t.last with
    | Some last ->
        let delta = v - last in
        (match t.last_delta with
        | Some d when d = delta -> t.confirmed <- Some delta
        | _ -> ());
        t.last_delta <- Some delta
    | None -> ());
    t.last <- Some v

  let reset t =
    t.last <- None;
    t.last_delta <- None;
    t.confirmed <- None

  let confirmed_stride t = t.confirmed
end

(* Finite context method (Sazeides & Smith): the last [order] values form
   a context whose signature indexes a second-level table holding the
   value that followed that context last time. *)
module Fcm = struct
  type s = {
    order : int;
    mask : int;
    history : int array; (* circular, oldest at [head] once full *)
    mutable fill : int; (* values observed, saturates at order *)
    mutable head : int; (* next write position *)
    table : int option array;
  }

  let create ?(order = 2) ?(table_bits = 16) () =
    if order < 1 then invalid_arg "Fcm.create: order < 1";
    if table_bits < 4 || table_bits > 24 then
      invalid_arg "Fcm.create: table_bits out of [4, 24]";
    {
      order;
      mask = (1 lsl table_bits) - 1;
      history = Array.make order 0;
      fill = 0;
      head = 0;
      table = Array.make (1 lsl table_bits) None;
    }

  let mix h v =
    let h = h lxor (v * 0x9E3779B1) in
    let h = (h lxor (h lsr 15)) * 0x85EBCA77 in
    h lxor (h lsr 13)

  (* Oldest value first, so rotations of one multiset hash differently. *)
  let signature t =
    let h = ref 0x12345 in
    for i = 0 to t.order - 1 do
      h := mix !h t.history.((t.head + i) mod t.order)
    done;
    !h land t.mask

  let context_full t = t.fill >= t.order
  let predict t = if context_full t then t.table.(signature t) else None

  let update t v =
    if context_full t then t.table.(signature t) <- Some v;
    t.history.(t.head) <- v;
    t.head <- (t.head + 1) mod t.order;
    if t.fill < t.order then t.fill <- t.fill + 1

  let reset t =
    t.fill <- 0;
    t.head <- 0;
    Array.fill t.table 0 (Array.length t.table) None

  let order t = t.order
end

(* Differential FCM (Goeman, Vander Zanden & De Bosschere): an FCM over
   strides, predicting [last + stride]. *)
module Dfcm = struct
  type s = { fcm : Fcm.s; mutable last : int option }

  let create ?order ?table_bits () =
    { fcm = Fcm.create ?order ?table_bits (); last = None }

  let predict t =
    match (t.last, Fcm.predict t.fcm) with
    | Some last, Some stride -> Some (last + stride)
    | _ -> None

  let update t v =
    (match t.last with Some last -> Fcm.update t.fcm (v - last) | None -> ());
    t.last <- Some v

  let reset t =
    Fcm.reset t.fcm;
    t.last <- None
end

(* Stride and FCM side by side, predicting with the component that has
   been right more often so far (stride wins ties, falling back to the
   other component when the chosen one has no prediction). Both train on
   every value: the paper's "higher of the two prediction rates" rule. *)
module Hybrid = struct
  type s = {
    stride : Stride.s;
    fcm : Fcm.s;
    mutable seen : int;
    mutable stride_hits : int;
    mutable fcm_hits : int;
  }

  let create ?order ?table_bits () =
    {
      stride = Stride.create ();
      fcm = Fcm.create ?order ?table_bits ();
      seen = 0;
      stride_hits = 0;
      fcm_hits = 0;
    }

  let predict t =
    let stride_better = t.stride_hits >= t.fcm_hits in
    match
      if stride_better then Stride.predict t.stride else Fcm.predict t.fcm
    with
    | Some v -> Some v
    | None ->
        if stride_better then Fcm.predict t.fcm else Stride.predict t.stride

  let update t v =
    (match Stride.predict t.stride with
    | Some p when p = v -> t.stride_hits <- t.stride_hits + 1
    | _ -> ());
    (match Fcm.predict t.fcm with
    | Some p when p = v -> t.fcm_hits <- t.fcm_hits + 1
    | _ -> ());
    t.seen <- t.seen + 1;
    Stride.update t.stride v;
    Fcm.update t.fcm v

  let reset t =
    Stride.reset t.stride;
    Fcm.reset t.fcm;
    t.seen <- 0;
    t.stride_hits <- 0;
    t.fcm_hits <- 0

  (* Running (stride, fcm) accuracies over the updates seen so far. *)
  let component_accuracies t =
    if t.seen = 0 then (0.0, 0.0)
    else
      let n = float_of_int t.seen in
      (float_of_int t.stride_hits /. n, float_of_int t.fcm_hits /. n)
end

let pack state predict update reset =
  {
    predict = (fun () -> predict state);
    update = update state;
    reset = (fun () -> reset state);
  }

let instantiate : Vp_predict.Predictor.kind -> t = function
  | Last_value ->
      pack (Last_value.create ()) Last_value.predict Last_value.update
        Last_value.reset
  | Stride -> pack (Stride.create ()) Stride.predict Stride.update Stride.reset
  | Fcm { order; table_bits } ->
      pack (Fcm.create ~order ~table_bits ()) Fcm.predict Fcm.update Fcm.reset
  | Dfcm { order; table_bits } ->
      pack (Dfcm.create ~order ~table_bits ()) Dfcm.predict Dfcm.update
        Dfcm.reset
  | Hybrid_stride_fcm { order; table_bits } ->
      pack (Hybrid.create ~order ~table_bits ()) Hybrid.predict Hybrid.update
        Hybrid.reset

(* Reset [p], then play [values] through predict/update pairs and return
   the fraction predicted correctly (0 on the empty list): the paper's
   per-operation "value prediction rate". *)
let accuracy p values =
  p.reset ();
  let correct = ref 0 and total = ref 0 in
  List.iter
    (fun v ->
      (match p.predict () with Some pr when pr = v -> incr correct | _ -> ());
      incr total;
      p.update v)
    values;
  if !total = 0 then 0.0 else float_of_int !correct /. float_of_int !total

let accuracy_of kind values = accuracy (instantiate kind) values
