type result = {
  executions : int;
  cycles : int;
  original_cycles : int;
  speedup : float;
  predictions : int;
  mispredictions : int;
  accuracy : float;
  profile_speedup : float;
}

(* A stable hardware PC for a static load: block index spread across the
   address space, plus the operation's slot. Op ids at or past the 256-slot
   spread would alias a neighbouring block's PCs (block b op 256 = block
   b+1 op 0), silently sharing VP-table entries — reject them instead. *)
let pc_of ~block ~op =
  if op < 0 || op >= 256 then
    invalid_arg
      (Printf.sprintf "Trace_sim.pc_of: op id %d outside [0, 256)" op);
  (block * 256) + op

(* --- Telemetry --- *)

type stats = {
  runs : int;
  memo_hits : int;
  engine_replays : int;
  alias_evictions : int;
}

let t_runs = Atomic.make 0
let t_memo_hits = Atomic.make 0
let t_engine_replays = Atomic.make 0
let t_alias_evictions = Atomic.make 0

let stats () =
  {
    runs = Atomic.get t_runs;
    memo_hits = Atomic.get t_memo_hits;
    engine_replays = Atomic.get t_engine_replays;
    alias_evictions = Atomic.get t_alias_evictions;
  }

let clear_stats () =
  Atomic.set t_runs 0;
  Atomic.set t_memo_hits 0;
  Atomic.set t_engine_replays 0;
  Atomic.set t_alias_evictions 0

let telemetry_json () =
  let s = stats () in
  Printf.sprintf
    "{\"runs\": %d, \"memo_hits\": %d, \"engine_replays\": %d, \
     \"alias_evictions\": %d}"
    s.runs s.memo_hits s.engine_replays s.alias_evictions

(* --- Bounded outcome-mask memo ---

   The memo maps an outcome mask (bit i set = predicted load i correct) to
   the block's effective cycles. Sound because the engine's timing fields
   depend only on (spec block, outcomes, CCB capacity, CCE retire width):
   mispredicted *values* change what is recomputed, never when anything
   completes. A dense array per block was 2^16 ints = 512 KB at the old
   [memo_limit = 16]; instead small blocks get a dense table (<= 32 KB)
   and larger ones a fixed open-addressed cache that stops inserting when
   full — correctness never depends on a hit. Masks are built with
   [1 lsl i], well-defined only for i <= 62 on 63-bit ints, so blocks
   beyond 62 predicted loads skip memoization entirely. *)

let direct_bits = 12
let bounded_slots = 4096 (* power of two *)
let bounded_cap = bounded_slots * 3 / 4
let mask_bits = 62

type memo =
  | No_memo
  | Direct of int array (* mask -> cycles, -1 = unset *)
  | Bounded of { keys : int array; vals : int array; mutable used : int }

let make_memo n =
  if n <= direct_bits then Direct (Array.make (1 lsl n) (-1))
  else if n <= mask_bits then
    Bounded
      {
        keys = Array.make bounded_slots (-1);
        vals = Array.make bounded_slots 0;
        used = 0;
      }
  else No_memo

let[@inline] bounded_hash mask =
  let h = mask * 0x9E3779B1 in
  (h lxor (h lsr 16)) land (bounded_slots - 1)

let memo_find m mask =
  match m with
  | No_memo -> -1
  | Direct a -> a.(mask)
  | Bounded b ->
      let i = ref (bounded_hash mask) in
      let r = ref (-2) in
      while !r = -2 do
        let k = Array.unsafe_get b.keys !i in
        if k = mask then r := Array.unsafe_get b.vals !i
        else if k = -1 then r := -1
        else i := (!i + 1) land (bounded_slots - 1)
      done;
      !r

let memo_add m mask cycles =
  match m with
  | No_memo -> ()
  | Direct a -> a.(mask) <- cycles
  | Bounded b ->
      if b.used < bounded_cap then begin
        let i = ref (bounded_hash mask) in
        while Array.unsafe_get b.keys !i <> -1 do
          i := (!i + 1) land (bounded_slots - 1)
        done;
        b.keys.(!i) <- mask;
        b.vals.(!i) <- cycles;
        b.used <- b.used + 1
      end

(* Per-block simulation state, built only for speculated blocks that
   actually execute: the compiled kernel (the pipeline's own, read back
   from the block's preparation, which the pipeline's run left in the
   preparation memo), the predicted loads' stream ids and PCs, and the
   outcome-mask memo. *)
type fast_block = {
  fb_compiled : Vp_engine.Compiled.t;
  fb_streams : int array; (* stream id per predicted load *)
  fb_pcs : int array; (* VP-table PC per predicted load *)
  fb_outcomes : bool array; (* scratch, one slot per predicted load *)
  fb_memo : memo;
}

let build_fast_block (p : Pipeline.t) bi (spec : Pipeline.spec_eval) =
  let prep = Pipeline.prep_cached p.config p.workload spec.sb in
  let preds = spec.Pipeline.sb.Vp_vspec.Spec_block.predicted in
  let n = Array.length preds in
  {
    fb_compiled = prep.prep_kernel;
    fb_streams =
      Array.map
        (fun (pl : Vp_vspec.Spec_block.predicted_load) ->
          Option.get pl.stream)
        preds;
    fb_pcs =
      Array.map
        (fun (pl : Vp_vspec.Spec_block.predicted_load) ->
          pc_of ~block:bi ~op:pl.orig_load_id)
        preds;
    fb_outcomes = Array.make n false;
    fb_memo = make_memo n;
  }

(* --- Persistent per-pipeline simulation state ---

   Everything in [fast_block] is a pure function of the pipeline: the
   compiled kernel (through the preparation memo), the predicted loads'
   stream ids and PCs, and the mask memo's mapping — which masks are
   *present* in the memo depends on run history, but mask -> cycles does
   not, so sharing the memo across runs changes which executions hit it,
   never the cycles they charge. Building this state dominates a
   validation run (~30 preparation lookups + cold engine replays), so it
   is built once per pipeline and reused: repeated runs replay the engine
   only for masks never seen by *any* prior run on that pipeline.

   Concurrency: runs on the same pipeline serialize on the state's lock
   ([fb_outcomes] and the mask memos are shared scratch); runs on
   different pipelines don't contend. The engine itself runs in the
   calling domain's lane arena ([Pipeline.lanes]), which no other domain
   touches. The registry is a bounded memo
   keyed physically on the pipeline, hashed on (model, seed, width), so
   resident memo memory stays capped alongside the per-block [Bounded]
   caps, and racing first runs of one pipeline share one state. *)

type sim_state = {
  ss_lock : Mutex.t;
  ss_blocks : fast_block option array; (* built on first execution *)
}

let states : (Pipeline.t, sim_state) Vp_util.Memo.t =
  Vp_util.Memo.create 64 ~equal:( == ) ~hash:(fun (p : Pipeline.t) ->
      Hashtbl.hash
        ( p.model.Vp_workload.Spec_model.name,
          p.config.Config.seed,
          p.config.Config.width ))

let state_for (p : Pipeline.t) =
  Vp_util.Memo.find_or_add states p (fun () ->
      {
        ss_lock = Mutex.create ();
        ss_blocks = Array.make (Array.length p.blocks) None;
      })

let block_for ss p bi spec =
  match ss.ss_blocks.(bi) with
  | Some f -> f
  | None ->
      let f = build_fast_block p bi spec in
      ss.ss_blocks.(bi) <- Some f;
      f

(* The default table is pooled per domain: creating the ~30 hybrid
   kernels a validation run touches costs more than simulating its 500
   executions, and a [Vp_table.reset] table is observationally identical
   to a fresh one. If an unusual mix of models has populated too many
   slots the pool is replaced outright, capping resident kernel memory. *)

let pool_populated_cap = 128

let default_table =
  Domain.DLS.new_key (fun () ->
      ref (Vp_predict.Vp_table.create ~entries:1024 ()))

let pooled_table () =
  let r = Domain.DLS.get default_table in
  if Vp_predict.Vp_table.populated !r > pool_populated_cap then
    r := Vp_predict.Vp_table.create ~entries:1024 ()
  else Vp_predict.Vp_table.reset !r;
  !r

let finish ~executions ~cycles ~original_cycles ~predictions ~mispredictions
    (p : Pipeline.t) =
  {
    executions;
    cycles;
    original_cycles;
    speedup =
      (if cycles = 0 then 1.0
       else float_of_int original_cycles /. float_of_int cycles);
    predictions;
    mispredictions;
    accuracy =
      (if predictions = 0 then 0.0
       else
         float_of_int (predictions - mispredictions)
         /. float_of_int predictions);
    profile_speedup = Vp_metrics.Summary.expected_speedup (Pipeline.stats p);
  }

let trace_rng (config : Config.t) =
  let rng = Vp_util.Rng.create config.Config.seed in
  Vp_util.Rng.split_named rng "hardware-trace"

let block_sampler (p : Pipeline.t) =
  Vp_util.Rng.sampler
    (Array.map (fun (b : Pipeline.block_eval) -> float_of_int b.count) p.blocks)

(* --- Fast lane: three phased kernels ---

   The run is equivalent to a per-execution loop that draws a block, then
   calls [Vp_table.predict_and_train] once per predicted load in
   prediction-index order and simulates the block on the outcomes
   (test/trace_sim_ref.ml is that loop, the oracle the tests pin this one
   to). Soundness rests on
   three facts, argued in DESIGN.md § "Trace-sim phases":
   - the block schedule is a pure function of (seed, block weights) — the
     trace RNG's only consumer is the block sampler, so the whole schedule
     can be drawn up front (phase 0);
   - each predicted load's value stream is private to that load, so
     occurrence [k] of a load always reads position [k] of its arena,
     independent of every other load (phase 1 gathers);
   - VP-table entries interact only through slot aliasing, so the table's
     touch sequence can be regrouped by slot as long as each slot's
     touches keep their schedule order (phase 1 kernels).

   Phase 2 then replays the schedule over the precomputed per-occurrence
   outcome bits, which is where cycles accounting and the mask memo
   live. *)

let run_fast ~executions ~table ss (p : Pipeline.t) =
  let config = p.config in
  let rng = trace_rng config in
  let blocks = block_sampler p in
  let nblocks = Array.length p.blocks in
  (* Phase 0: pre-draw the schedule. An explicit loop — [Array.init]'s
     evaluation order is unspecified, and the draws must consume the RNG
     in schedule order, as the per-execution loop draws them. *)
  let schedule = Array.make executions 0 in
  for i = 0 to executions - 1 do
    schedule.(i) <- Vp_util.Rng.sample rng blocks
  done;
  let occ = Array.make nblocks 0 in
  for i = 0 to executions - 1 do
    let bi = schedule.(i) in
    occ.(bi) <- occ.(bi) + 1
  done;
  (* Per-run view over the persistent per-block state, restricted to
     speculated blocks that actually execute this run: the per-execution
     loop never touches the table for a block with zero occurrences, so
     neither may we. *)
  let fast : fast_block option array = Array.make nblocks None in
  let base = Array.make nblocks 0 in
  let total_loads = ref 0 in
  for bi = 0 to nblocks - 1 do
    base.(bi) <- !total_loads;
    if occ.(bi) > 0 then
      match p.blocks.(bi).Pipeline.spec with
      | None -> ()
      | Some spec ->
          let f = block_for ss p bi spec in
          fast.(bi) <- Some f;
          total_loads := !total_loads + Array.length f.fb_streams
  done;
  let total_loads = !total_loads in
  let ld_block = Array.make total_loads 0 in
  let ld_stream = Array.make total_loads 0 in
  let ld_pc = Array.make total_loads 0 in
  let ld_out = Array.make total_loads Bytes.empty in
  for bi = 0 to nblocks - 1 do
    match fast.(bi) with
    | None -> ()
    | Some f ->
        let g0 = base.(bi) in
        Array.iteri
          (fun li sid ->
            ld_block.(g0 + li) <- bi;
            ld_stream.(g0 + li) <- sid;
            ld_pc.(g0 + li) <- f.fb_pcs.(li);
            ld_out.(g0 + li) <- Bytes.create occ.(bi))
          f.fb_streams
  done;
  (* Phase 1: group loads by VP-table slot and run each slot's whole
     predict-and-train sequence as one kernel call. Slot groups are
     mutually independent (each owns its table entry outright), so their
     order does not matter; within a group, touches keep schedule order. *)
  let groups : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  for g = total_loads - 1 downto 0 do
    let slot = Vp_predict.Vp_table.index table ld_pc.(g) in
    Hashtbl.replace groups slot
      (g :: Option.value ~default:[] (Hashtbl.find_opt groups slot))
  done;
  Hashtbl.iter
    (fun _slot members ->
      match members with
      | [] -> ()
      | [ g ] ->
          (* The common case: one static load owns the slot. Its touch
             sequence is its arena prefix, occurrence k at position k. *)
          let len = occ.(ld_block.(g)) in
          let values =
            Vp_workload.Workload.arena p.workload ld_stream.(g) ~min_len:len
          in
          Vp_predict.Vp_table.run_slot_uniform table ~pc:ld_pc.(g) values
            ~len ~correct:ld_out.(g)
      | members ->
          (* Aliasing slot: interleave the members' touches in schedule
             order — that is the order tag evictions fire in the
             per-execution loop. Gather (pc, value) per touch, run the
             slot, scatter the outcome bytes back per load. *)
          let members = Array.of_list members in
          let m = Array.length members in
          let per_block : int list array = Array.make nblocks [] in
          for j = m - 1 downto 0 do
            let bi = ld_block.(members.(j)) in
            per_block.(bi) <- j :: per_block.(bi)
          done;
          let bufs =
            Array.map
              (fun g ->
                Vp_workload.Workload.arena p.workload ld_stream.(g)
                  ~min_len:(occ.(ld_block.(g))))
              members
          in
          let touches = ref 0 in
          Array.iter
            (fun g -> touches := !touches + occ.(ld_block.(g)))
            members;
          let touches = !touches in
          let pcs = Array.make touches 0 in
          let vals = Array.make touches 0 in
          let owner = Array.make touches 0 in
          let kcnt = Array.make m 0 in
          let t = ref 0 in
          for i = 0 to executions - 1 do
            let bi = schedule.(i) in
            List.iter
              (fun j ->
                let g = members.(j) in
                pcs.(!t) <- ld_pc.(g);
                vals.(!t) <- bufs.(j).(kcnt.(j));
                owner.(!t) <- j;
                kcnt.(j) <- kcnt.(j) + 1;
                incr t)
              per_block.(bi)
          done;
          let correct = Bytes.create touches in
          Vp_predict.Vp_table.run_slot table ~pcs vals ~len:touches ~correct;
          Array.fill kcnt 0 m 0;
          for t = 0 to touches - 1 do
            let j = owner.(t) in
            Bytes.set ld_out.(members.(j)) kcnt.(j) (Bytes.get correct t);
            kcnt.(j) <- kcnt.(j) + 1
          done)
    groups;
  (* Phase 2: replay the schedule over the precomputed outcome bits,
     accumulating cycles through the per-block mask memo. A miss runs the
     engine on its one vector, in schedule order, so the first deadlocking
     execution raises, as in the per-execution loop. *)
  let lanes = Pipeline.lanes () in
  let kpos = Array.make total_loads 0 in
  let cycles = ref 0 in
  let original_cycles = ref 0 in
  let predictions = ref 0 in
  let mispredictions = ref 0 in
  let memo_hits = ref 0 in
  let engine_replays = ref 0 in
  for i = 0 to executions - 1 do
    let bi = schedule.(i) in
    let b = p.blocks.(bi) in
    original_cycles := !original_cycles + b.Pipeline.original_cycles;
    match fast.(bi) with
    | None -> cycles := !cycles + b.Pipeline.original_cycles
    | Some f ->
        let n = Array.length f.fb_streams in
        let g0 = base.(bi) in
        let mask = ref 0 in
        for li = 0 to n - 1 do
          let g = g0 + li in
          let correct =
            Bytes.unsafe_get ld_out.(g) kpos.(g) = '\001'
          in
          kpos.(g) <- kpos.(g) + 1;
          incr predictions;
          if not correct then incr mispredictions;
          f.fb_outcomes.(li) <- correct;
          if correct && li <= mask_bits then mask := !mask lor (1 lsl li)
        done;
        let memoized = memo_find f.fb_memo !mask in
        let eff =
          if memoized >= 0 then begin
            incr memo_hits;
            memoized
          end
          else begin
            incr engine_replays;
            let r =
              (Vp_engine.Compiled.run_bitset
                 ?ccb_capacity:config.ccb_capacity
                 ~cce_retire_width:config.cce_retire_width f.fb_compiled
                 lanes ~vectors:[| f.fb_outcomes |]).(0)
            in
            let eff = Config.effective_cycles config r in
            memo_add f.fb_memo !mask eff;
            eff
          end
        in
        cycles := !cycles + eff
  done;
  Atomic.incr t_runs;
  ignore (Atomic.fetch_and_add t_memo_hits !memo_hits);
  ignore (Atomic.fetch_and_add t_engine_replays !engine_replays);
  finish ~executions ~cycles:!cycles ~original_cycles:!original_cycles
    ~predictions:!predictions ~mispredictions:!mispredictions p

let run ?(executions = 5000) ?table (p : Pipeline.t) =
  let table =
    match table with Some t -> t | None -> pooled_table ()
  in
  let ss = state_for p in
  let ev0 = Vp_predict.Vp_table.evictions table in
  let r =
    Mutex.protect ss.ss_lock (fun () -> run_fast ~executions ~table ss p)
  in
  ignore
    (Atomic.fetch_and_add t_alias_evictions
       (Vp_predict.Vp_table.evictions table - ev0));
  r

let render ?(format = `Ascii) rows =
  let speedup_column name =
    (Vp_util.Table.unit_header format name "x", Vp_util.Table.Right)
  in
  let speedup x = Vp_util.Table.unit_cell format (Printf.sprintf "%.3f" x) "x" in
  let table =
    Vp_util.Table.create
      ~title:
        "Hardware-mode validation: run-time value-prediction table vs the \
         profile-driven expectation"
      [
        ("Benchmark", Vp_util.Table.Left);
        speedup_column "Speedup (hw)";
        speedup_column "Speedup (profile)";
        ("Accuracy (hw)", Vp_util.Table.Right);
        ("Predictions", Vp_util.Table.Right);
      ]
  in
  List.iter
    (fun (name, r) ->
      Vp_util.Table.add_row table
        [
          name;
          speedup r.speedup;
          speedup r.profile_speedup;
          Printf.sprintf "%.3f" r.accuracy;
          string_of_int r.predictions;
        ])
    rows;
  match format with
  | `Ascii -> Vp_util.Table.render table
  | `Csv -> Vp_util.Table.render_csv table
