type t = {
  model : Spec_model.t;
  seed : int;
  program : Vp_ir.Program.t;
  shapes : Value_stream.shape array;
}

let zipf_counts ~rng ~skew ~blocks ~total =
  (* Deterministic Zipf split of [total] executions over [blocks] blocks,
     with ranks assigned in shuffled order and every block executing at
     least once. *)
  let ranks = Array.init blocks (fun i -> i) in
  Vp_util.Rng.shuffle rng ranks;
  let weights =
    Array.init blocks (fun i ->
        1.0 /. Float.pow (float_of_int (i + 1)) skew)
  in
  let sum = Array.fold_left ( +. ) 0.0 weights in
  let counts = Array.make blocks 1 in
  Array.iteri
    (fun block rank ->
      counts.(block) <-
        max 1
          (int_of_float
             (Float.round (float_of_int total *. weights.(rank) /. sum))))
    ranks;
  counts

(* [generate] is pure in (seed, model) and [t] is immutable, so repeat
   generations — every sweep point of a suite re-runs it — can share one
   instance. Keyed on the seed and the physical model, hashed on (seed,
   model name), so a custom model reusing a stock name misses instead of
   aliasing. Physical sharing also concentrates the phys-keyed caches
   downstream (profile memo, block preparations) onto single entries. *)
let generated : (int * Spec_model.t, t) Vp_util.Memo.t =
  Vp_util.Memo.create 256
    ~hash:(fun (seed, model) -> Hashtbl.hash (seed, model.Spec_model.name))
    ~equal:(fun (seed, model) (seed', model') ->
      seed = seed' && model == model')

let generate_fresh ~seed model =
  let rng = Vp_util.Rng.create seed in
  let rng = Vp_util.Rng.split_named rng model.Spec_model.name in
  let shapes = ref [] in
  let stream_base = ref 0 in
  let blocks =
    List.init model.num_blocks (fun i ->
        let block_rng = Vp_util.Rng.split rng in
        let block, block_shapes =
          Block_gen.generate model ~rng:block_rng ~stream_base:!stream_base
            ~label:(Printf.sprintf "%s_bb%d" model.name i)
        in
        stream_base := !stream_base + List.length block_shapes;
        shapes := List.rev_append block_shapes !shapes;
        block)
  in
  let counts =
    zipf_counts ~rng ~skew:model.zipf_skew ~blocks:model.num_blocks
      ~total:model.dynamic_executions
  in
  let weighted =
    List.mapi
      (fun i block -> { Vp_ir.Program.block; count = counts.(i) })
      blocks
  in
  {
    model;
    seed;
    program = Vp_ir.Program.create ~name:model.name weighted;
    shapes = Array.of_list (List.rev !shapes);
  }

let generate ?(seed = 42) model =
  Vp_util.Memo.find_or_add generated (seed, model) (fun () ->
      generate_fresh ~seed model)

let model t = t.model
let seed t = t.seed
let program t = t.program
let num_streams t = Array.length t.shapes

let shape t id =
  if id < 0 || id >= num_streams t then
    invalid_arg "Workload.shape: unknown stream";
  t.shapes.(id)

let stream t id =
  let shape = shape t id in
  let rng = Vp_util.Rng.create t.seed in
  let rng = Vp_util.Rng.split_named rng (Printf.sprintf "stream-%d" id) in
  Value_stream.create rng shape

(* --- Stream arenas ---

   A stream's value sequence is fully determined by [(seed, id, shape)],
   the inputs of [stream], so the materialized prefixes live in a
   module-global table keyed on exactly those rather than on [t]:
   workloads regenerated for the same model share one arena, two models
   that share a name but not a stream's shape do not, and [t] itself
   stays free of mutexes and cache state (pipeline results carrying
   workloads are marshalled into the on-disk store). The [tail] stream
   instance sits at position [filled], so growing an arena only draws the
   missing suffix. *)

type arena_entry = {
  mutable buf : int array;
  mutable filled : int;
  tail : Value_stream.t;
}

let arenas : (int * int * Value_stream.shape, arena_entry) Hashtbl.t =
  Hashtbl.create 64

let arenas_mutex = Mutex.create ()
let arenas_cap = 1024

let arena t id ~min_len =
  let min_len = max min_len 0 in
  let key = (t.seed, id, shape t id) in
  Mutex.protect arenas_mutex (fun () ->
      let entry =
        match Hashtbl.find_opt arenas key with
        | Some e -> e
        | None ->
            if Hashtbl.length arenas >= arenas_cap then Hashtbl.reset arenas;
            let e =
              { buf = [||]; filled = 0; tail = stream t id }
            in
            Hashtbl.add arenas key e;
            e
      in
      if entry.filled < min_len then begin
        if Array.length entry.buf < min_len then begin
          let cap = max min_len (max 64 (2 * Array.length entry.buf)) in
          let buf = Array.make cap 0 in
          Array.blit entry.buf 0 buf 0 entry.filled;
          entry.buf <- buf
        end;
        (* Fill the whole allocation, not just [min_len]: every position of
           the returned array is then a valid stream value, so callers may
           use [Array.length] as the usable length (the trace simulator's
           cursors rely on this). *)
        let cap = Array.length entry.buf in
        for i = entry.filled to cap - 1 do
          entry.buf.(i) <- Value_stream.next entry.tail
        done;
        entry.filled <- cap
      end;
      entry.buf)

let block_count t i = (Vp_ir.Program.nth t.program i).count

let pp_summary ppf t =
  let program = t.program in
  let loads =
    Array.fold_left
      (fun acc (wb : Vp_ir.Program.weighted_block) ->
        acc + List.length (Vp_ir.Block.loads wb.block))
      0 (Vp_ir.Program.blocks program)
  in
  let mix = Hashtbl.create 8 in
  Array.iter
    (fun s ->
      let k = Value_stream.shape_name s in
      Hashtbl.replace mix k (1 + Option.value ~default:0 (Hashtbl.find_opt mix k)))
    t.shapes;
  Format.fprintf ppf
    "@[<v>%s (seed %d): %d blocks, %d static ops, %d loads, %d dynamic block \
     executions@ stream mix:"
    t.model.name t.seed
    (Vp_ir.Program.num_blocks program)
    (Vp_ir.Program.total_operations program)
    loads t.model.dynamic_executions;
  Hashtbl.iter (fun k n -> Format.fprintf ppf " %s=%d" k n) mix;
  Format.fprintf ppf "@]"
