type params = {
  max_blocks : int;
  min_probability : float;
  min_count : int;
  stitch : float;
}

let default_params =
  { max_blocks = 4; min_probability = 0.6; min_count = 10; stitch = 0.8 }

type trace = { head : int; blocks : int list; count : int }

let select_traces cfg program params =
  let n = Vp_ir.Program.num_blocks program in
  let count i = (Vp_ir.Program.nth program i).count in
  let visited = Array.make n false in
  (* Seeds in decreasing hotness, id as tie-break. *)
  let order =
    List.init n Fun.id
    |> List.sort (fun a b ->
           match compare (count b) (count a) with 0 -> compare a b | c -> c)
  in
  let grow seed =
    let rec go acc prob current len =
      if len >= params.max_blocks then (List.rev acc, prob)
      else
        match Vp_workload.Cfg.hottest_successor cfg current with
        | Some e
          when e.probability >= params.min_probability
               && (not visited.(e.dst))
               && not (List.mem e.dst acc) ->
            visited.(e.dst) <- true;
            go (e.dst :: acc) (prob *. e.probability) e.dst (len + 1)
        | Some _ | None -> (List.rev acc, prob)
    in
    visited.(seed) <- true;
    go [ seed ] 1.0 seed 1
  in
  List.filter_map
    (fun seed ->
      if visited.(seed) || count seed < params.min_count then None
      else begin
        let blocks, prob = grow seed in
        (* The superblock executes end-to-end only when every interior
           branch falls through, and no more often than its coldest member
           ran at all — the remaining executions are early exits and side
           entries, which stay with the residual originals. *)
        let coldest = List.fold_left (fun m b -> min m (count b)) max_int blocks in
        let full_path =
          int_of_float (Float.round (float_of_int (count seed) *. prob))
        in
        Some { head = seed; blocks; count = max 1 (min coldest full_path) }
      end)
    order

(* Concatenate a trace's blocks into one: interior branches dropped, later
   blocks' live-in reads stitched (with probability [stitch]) to results of
   earlier trace blocks. *)
let merge_trace rng ~stitch workload trace =
  let program = Vp_workload.Workload.program workload in
  let upstream_defs = ref [||] in
  let upstream_load_defs = ref [||] in
  let ops = ref [] in
  let last_index = List.length trace.blocks - 1 in
  List.iteri
    (fun pos b ->
      let block = (Vp_ir.Program.nth program b).block in
      let body = Array.to_list (Vp_ir.Block.ops block) in
      let body =
        if pos = last_index then body
        else List.filter (fun o -> not (Vp_ir.Operation.is_branch o)) body
      in
      let defs_here = ref [] in
      let load_defs_here = ref [] in
      List.iter
        (fun (op : Vp_ir.Operation.t) ->
          (* A load's address stitches preferentially to an earlier load's
             result — the cross-block pointer chase that makes regions
             interesting for value prediction. *)
          let pool =
            if Vp_ir.Operation.is_load op && Array.length !upstream_load_defs > 0
            then !upstream_load_defs
            else !upstream_defs
          in
          let srcs =
            List.map
              (fun r ->
                if
                  r < Vp_workload.Block_gen.num_live_ins
                  && Array.length pool > 0
                  && Vp_util.Rng.bernoulli rng stitch
                then Vp_util.Rng.choose rng pool
                else r)
              op.srcs
          in
          (match Vp_ir.Operation.writes op with
          | Some d ->
              defs_here := d :: !defs_here;
              (* Only regular loads anchor cross-block pointer chains:
                 pointer fields walked by consecutive hot blocks are the
                 predictable ones (cf. the workload models' chain mixes). *)
              let regular_load =
                Vp_ir.Operation.is_load op
                &&
                match op.stream with
                | Some s -> (
                    match Vp_workload.Workload.shape workload s with
                    | Vp_workload.Value_stream.Random _ -> false
                    | _ -> true)
                | None -> false
              in
              if regular_load then load_defs_here := d :: !load_defs_here
          | None -> ());
          ops := { op with srcs } :: !ops)
        body;
      (* this block's results become stitch candidates downstream *)
      upstream_defs :=
        Array.of_list
          (List.sort_uniq compare
             (!defs_here @ Array.to_list !upstream_defs));
      upstream_load_defs :=
        Array.of_list
          (List.sort_uniq compare
             (!load_defs_here @ Array.to_list !upstream_load_defs)))
    trace.blocks;
  Vp_ir.Block.of_ops
    ~label:(Printf.sprintf "sb_%d" trace.head)
    (List.rev !ops)

let form workload cfg params =
  let program = Vp_workload.Workload.program workload in
  let rng = Vp_util.Rng.create (Vp_workload.Workload.seed workload) in
  let rng = Vp_util.Rng.split_named rng "superblock" in
  let traces = select_traces cfg program params in
  (* Superblocks first (hottest trace first), then residual originals:
     each keeps its block physically, with only its count changed. *)
  let consumed = Array.make (Vp_ir.Program.num_blocks program) 0 in
  let merged =
    List.filter_map
      (fun trace ->
        if List.length trace.blocks < 2 then None
        else begin
          List.iter
            (fun b -> consumed.(b) <- consumed.(b) + trace.count)
            trace.blocks;
          let trace_rng =
            Vp_util.Rng.split_named rng (Printf.sprintf "trace-%d" trace.head)
          in
          Some
            {
              Vp_ir.Program.block =
                merge_trace trace_rng ~stitch:params.stitch workload trace;
              count = trace.count;
            }
        end)
      traces
  in
  let residual =
    Array.to_list (Vp_ir.Program.blocks program)
    |> List.mapi (fun i (wb : Vp_ir.Program.weighted_block) ->
           { wb with count = max 0 (wb.count - consumed.(i)) })
    |> List.filter (fun (wb : Vp_ir.Program.weighted_block) -> wb.count > 0)
  in
  let name = Vp_ir.Program.name program ^ "+sb" in
  (Vp_ir.Program.create ~name (merged @ residual), traces)
