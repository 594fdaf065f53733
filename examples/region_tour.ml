(* Region tour: the superblock extension end to end, through the public API.

   The paper closes with "for larger regions such as hyperblocks and
   superblocks, we expect to see a further improvement". This walkthrough
   derives a control-flow graph for a benchmark, forms hot-trace
   superblocks, shows one formed region next to its constituent blocks, and
   measures region-granularity value prediction against the basic-block
   baseline — with the Compensation Code Engine's retire width scaled to
   the region size, which the region experiments show is what larger
   speculation sets need.

   Run with:  dune exec examples/region_tour.exe
*)

(* An experiment declared on its own sequential job graph, run to its
   result. *)
let run declare =
  let g = Vp_exec.Graph.create Vp_exec.Context.sequential in
  Vp_exec.Graph.await g (declare g)

let () =
  let model = Vp_workload.Spec_model.li in
  let workload = Vp_workload.Workload.generate model in
  let cfg = Vp_workload.Cfg.derive workload in
  let params = Vp_region.Superblock.default_params in

  (* 1. Trace selection over the CFG. *)
  let program = Vp_workload.Workload.program workload in
  let traces = Vp_region.Superblock.select_traces cfg program params in
  let multi =
    List.filter
      (fun (t : Vp_region.Superblock.trace) -> List.length t.blocks >= 2)
      traces
  in
  Printf.printf "%s: %d blocks, %d traces selected (%d multi-block)\n\n"
    model.name
    (Vp_ir.Program.num_blocks program)
    (List.length traces) (List.length multi);

  (* 2. Show the hottest formed superblock. *)
  let sb_program, _ = Vp_region.Superblock.form workload cfg params in
  (match multi with
  | t :: _ ->
      Printf.printf
        "hottest trace: head block %d, blocks [%s], %d end-to-end executions\n"
        t.head
        (String.concat "; " (List.map string_of_int t.blocks))
        t.count;
      let sizes =
        List.map
          (fun b -> Vp_ir.Block.size (Vp_ir.Program.nth program b).block)
          t.blocks
      in
      let merged = (Vp_ir.Program.nth sb_program 0).block in
      Printf.printf
        "constituent sizes %s -> merged superblock of %d operations (%s)\n\n"
        (String.concat "+" (List.map string_of_int sizes))
        (Vp_ir.Block.size merged) (Vp_ir.Block.label merged)
  | [] -> print_endline "no multi-block traces formed");

  (* 3. Region-granularity value prediction vs the basic-block baseline. *)
  print_string
    (Vliw_vp.Experiments.render_regions
       (run (fun g ->
            Vliw_vp.Experiments.regions g ~config:Vliw_vp.Config.default
              ~params [ model; Vp_workload.Spec_model.swim ])));
  print_newline ();

  (* 4. Why the CCE retire width matters at region scale: the same region
     program, paper-width engine vs scaled engine. *)
  let region_pipeline width =
    let config = { Vliw_vp.Config.default with cce_retire_width = width } in
    let p = Vliw_vp.Pipeline.run_program ~config workload sb_program in
    Vp_metrics.Summary.expected_speedup (Vliw_vp.Pipeline.stats p)
  in
  Printf.printf
    "region program, CCE retire width 1: %.3fx expected speedup\n"
    (region_pipeline 1);
  Printf.printf
    "region program, CCE retire width 4: %.3fx expected speedup\n"
    (region_pipeline 4);
  print_endline
    "(wider regions carry larger speculation sets; a single-retire CCE\n\
     serializes their recovery, so the region benefit needs a wider engine)"

(* 5. The other region shape: hyperblocks. If-conversion absorbs a biased
   branch's side path under its predicate; restorable guarded operations
   still participate in value speculation (old values preserved for
   recovery). *)
let () =
  let model = Vp_workload.Spec_model.li in
  let workload = Vp_workload.Workload.generate model in
  let cfg = Vp_workload.Cfg.derive workload in
  let hb_program, formed =
    Vp_region.Hyperblock.form workload cfg Vp_region.Hyperblock.default_params
  in
  Printf.printf "\nhyperblocks: %d formed from %d blocks\n" formed
    (Vp_ir.Program.num_blocks (Vp_workload.Workload.program workload));
  (match
     Array.find_opt
       (fun (wb : Vp_ir.Program.weighted_block) ->
         Array.exists
           (fun (o : Vp_ir.Operation.t) -> o.guard <> None)
           (Vp_ir.Block.ops wb.block))
       (Vp_ir.Program.blocks hb_program)
   with
  | Some wb ->
      let guarded =
        Array.to_list (Vp_ir.Block.ops wb.block)
        |> List.filter (fun (o : Vp_ir.Operation.t) -> o.guard <> None)
      in
      Printf.printf "example %s: %d operations, %d predicated (e.g. %s)\n"
        (Vp_ir.Block.label wb.block)
        (Vp_ir.Block.size wb.block)
        (List.length guarded)
        (Format.asprintf "%a" Vp_ir.Operation.pp (List.hd guarded))
  | None -> ());
  print_string
    (Vliw_vp.Experiments.render_hyperblocks
       (run (fun g ->
            Vliw_vp.Experiments.hyperblocks g ~config:Vliw_vp.Config.default
              [ model ])))
