(* Shared spec-unit cache: per-block schedule / transform / compiled-kernel
   artifacts, memoized across sweep points (and, store-backed, across
   runs). See the interface for the key construction and the threshold
   normalization argument. *)

type stats = Vp_util.Memo.stats = { hits : int; misses : int; evictions : int }

(* The content-keyed tables hold 8192 entries each. The compiled-kernel
   table holds 1024 spec blocks times 8 machine shapes. *)
let sched : (string, Vp_sched.Schedule.t) Vp_util.Memo.t =
  Vp_util.Memo.create 8192

let xform : (string, Vp_vspec.Transform.outcome) Vp_util.Memo.t =
  Vp_util.Memo.create 8192

let rates : (string, float array) Vp_util.Memo.t = Vp_util.Memo.create 8192

(* Compiled kernels: keyed physically on the spec block and matched on
   the machine shape and reference. The reuse this cache exists for — the
   same block under several CCE shapes, or repeated runs of one sweep
   point — always goes through the transform cache first and therefore
   holds the same physical [sb]; content-digesting a whole spec block
   would cost more than the compile it saves. Every kernel is compiled
   against {!Vp_engine.Reference.live_in}, so the live-ins are no part of
   the key. *)
type compiled_key = {
  sb : Vp_vspec.Spec_block.t;
  ccb : int option;
  cce : int;
  reference : Vp_engine.Reference.t;
}

let comp : (compiled_key, Vp_engine.Compiled.t) Vp_util.Memo.t =
  Vp_util.Memo.create 8192
    ~hash:(fun k -> Hashtbl.hash k.sb)
    ~equal:(fun a b ->
      a.sb == b.sb && a.ccb = b.ccb && a.cce = b.cce
      && a.reference = b.reference)

let stats () =
  Vp_util.Memo.(total [ stats sched; stats xform; stats rates; stats comp ])

(* An [ident] is a (region formation digest, block index) pair: a complete
   content identity for the block — formation is deterministic in the
   digested inputs — in a few dozen bytes. It substitutes the marshalled
   block IR in the artifact keys below under a distinct tag, so the two
   keyings can never collide. *)
let schedule ?store ?ident descr block =
  let key =
    match ident with
    | Some (digest, index) ->
        Vp_exec.Store.key ("spec-unit-schedule-ident", descr, digest, index)
    | None -> Vp_exec.Store.key ("spec-unit-schedule", descr, block)
  in
  Vp_exec.Store.cached ?store sched ~key (fun () ->
      Vp_sched.List_scheduler.schedule_block descr block)

(* The transform reads the threshold only through the predicate
   [rate >= threshold] (selection; the no-candidates message inverts it),
   so masking failing rates to [None] and running with threshold 0.0 is
   exact — every rate in [0,1] passes 0.0 iff it survived the mask — and
   lets sweep points that differ only in threshold share the entry. The
   single threshold-dependent output, the "no load above the %.2f profile
   threshold" message, is rewritten on the way out. *)
let threshold_msg_prefix = "no load above the "

let transform ?store ?ident ~(policy : Vp_vspec.Policy.t) descr
    ~(rates : float option array) block =
  let masked =
    Array.map
      (function
        | Some r when r >= policy.Vp_vspec.Policy.threshold -> Some r
        | Some _ | None -> None)
      rates
  in
  let policy0 = { policy with Vp_vspec.Policy.threshold = 0.0 } in
  let key =
    match ident with
    | Some (digest, index) ->
        Vp_exec.Store.key
          ("spec-unit-transform-ident", descr, policy0, masked, digest, index)
    | None ->
        Vp_exec.Store.key ("spec-unit-transform", descr, policy0, masked, block)
  in
  let outcome =
    Vp_exec.Store.cached ?store xform ~key (fun () ->
        let baseline = schedule ?store ?ident descr block in
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
let profile_rates ?store workload ~stream ~samples ~kinds =
  let key =
    Vp_exec.Store.key
      ( "spec-unit-profile-rates",
        Vp_workload.Workload.seed workload,
        stream,
        Vp_workload.Workload.shape workload stream,
        samples,
        kinds )
  in
  Vp_exec.Store.cached ?store rates ~key (fun () ->
      Vp_profile.Value_profile.stream_rates workload ~stream ~samples ~kinds)

let compiled ?ccb_capacity ~cce_retire_width sb ~reference =
  Vp_util.Memo.find_or_add comp
    { sb; ccb = ccb_capacity; cce = cce_retire_width; reference }
    (fun () ->
      Vp_engine.Compiled.compile ?ccb_capacity ~cce_retire_width sb
        ~reference ~live_in:Vp_engine.Reference.live_in)

let clear () =
  Vp_util.Memo.clear sched;
  Vp_util.Memo.clear xform;
  Vp_util.Memo.clear rates;
  Vp_util.Memo.clear comp
