(* Shared spec-unit cache: per-block schedule / transform artifacts and
   per-stream profiled rates, memoized across sweep points. See the
   interface for the key construction and the threshold normalization
   argument. *)

type stats = Vp_util.Memo.stats = { hits : int; misses : int; evictions : int }

(* Schedules and transform outcomes are keyed physically on the block:
   sweep points hand in the workload memo's one physical program, and
   region formation keeps every block it does not merge, so [==] finds
   each sharer without digesting the IR. The rest of each key is compared
   by value. Every table holds 32768 entries, so a cold frontier or
   report, the largest runs, fills none. *)
type sched_key = { s_block : Vp_ir.Block.t; s_descr : Vp_machine.Descr.t }

let sched : (sched_key, Vp_sched.Schedule.t) Vp_util.Memo.t =
  Vp_util.Memo.create 32768
    ~hash:(fun k -> Hashtbl.hash k.s_block)
    ~equal:(fun a b -> a.s_block == b.s_block && a.s_descr = b.s_descr)

(* [x_policy] has its threshold zeroed and [x_rates] its failing rates
   masked to [None] (see [transform]). *)
type xform_key = {
  x_block : Vp_ir.Block.t;
  x_descr : Vp_machine.Descr.t;
  x_policy : Vp_vspec.Policy.t;
  x_rates : float option array;
}

let xform : (xform_key, Vp_vspec.Transform.outcome) Vp_util.Memo.t =
  Vp_util.Memo.create 32768
    ~hash:(fun k -> Hashtbl.hash k.x_block)
    ~equal:(fun a b ->
      a.x_block == b.x_block && a.x_descr = b.x_descr
      && a.x_policy = b.x_policy && a.x_rates = b.x_rates)

let rates : (string, float array) Vp_util.Memo.t = Vp_util.Memo.create 32768

let stats () = Vp_util.Memo.(total [ stats sched; stats xform; stats rates ])

let schedule descr block =
  Vp_util.Memo.find_or_add sched { s_block = block; s_descr = descr }
    (fun () -> Vp_sched.List_scheduler.schedule_block descr block)

(* The transform reads the threshold only through the predicate
   [rate >= threshold] (selection; the no-candidates message inverts it),
   so masking failing rates to [None] and running with threshold 0.0 is
   exact — every rate in [0,1] passes 0.0 iff it survived the mask — and
   lets sweep points that differ only in threshold share the entry. The
   single threshold-dependent output, the "no load above the %.2f profile
   threshold" message, is rewritten on the way out. *)
let threshold_msg_prefix = "no load above the "

let transform ~(policy : Vp_vspec.Policy.t) descr
    ~(rates : float option array) block =
  let masked =
    Array.map
      (function
        | Some r when r >= policy.Vp_vspec.Policy.threshold -> Some r
        | Some _ | None -> None)
      rates
  in
  let policy0 = { policy with Vp_vspec.Policy.threshold = 0.0 } in
  let outcome =
    Vp_util.Memo.find_or_add xform
      { x_block = block; x_descr = descr; x_policy = policy0; x_rates = masked }
      (fun () ->
        let baseline = schedule descr block in
        Vp_vspec.Transform.apply ~policy:policy0 ~baseline descr
          ~rate:(fun (op : Vp_ir.Operation.t) -> masked.(op.id))
          block)
  in
  match outcome with
  | Vp_vspec.Transform.Unchanged msg
    when String.length msg >= String.length threshold_msg_prefix
         && String.sub msg 0 (String.length threshold_msg_prefix)
            = threshold_msg_prefix ->
      Vp_vspec.Transform.Unchanged
        (Printf.sprintf "no load above the %.2f profile threshold"
           policy.Vp_vspec.Policy.threshold)
  | o -> o

(* Per-stream profiled accuracies. The values are a pure function of
   (workload seed, stream id, stream shape, sample count, predictor kinds)
   — [Workload.stream] derives the stream RNG from (seed, id) alone — so
   the key carries exactly those, never the program: sweep points, region
   programs and repeated runs that profile the same streams share one
   entry. *)
let profile_rates workload ~stream ~samples ~kinds =
  let key =
    Vp_exec.Store.key
      ( "spec-unit-profile-rates",
        Vp_workload.Workload.seed workload,
        stream,
        Vp_workload.Workload.shape workload stream,
        samples,
        kinds )
  in
  Vp_util.Memo.find_or_add rates key (fun () ->
      Vp_profile.Value_profile.stream_rates workload ~stream ~samples ~kinds)

let clear () =
  Vp_util.Memo.clear sched;
  Vp_util.Memo.clear xform;
  Vp_util.Memo.clear rates
