let fence buf body =
  Buffer.add_string buf "```\n";
  Buffer.add_string buf body;
  if body <> "" && body.[String.length body - 1] <> '\n' then
    Buffer.add_char buf '\n';
  Buffer.add_string buf "```\n\n"

let heading buf level title =
  Buffer.add_string buf (String.make level '#');
  Buffer.add_char buf ' ';
  Buffer.add_string buf title;
  Buffer.add_string buf "\n\n"

let paragraph buf text =
  Buffer.add_string buf text;
  Buffer.add_string buf "\n\n"

(* The report's own order: registry artifacts, fenced under their
   titles. *)
let sections =
  [
    "table2"; "table3"; "table4"; "fig8"; "comparison"; "example"; "regions";
    "hyperblocks"; "overlap"; "stability"; "hardware";
  ]

let generate ?(config = Config.default)
    ?(exec = Vp_exec.Context.sequential)
    ?(models = Vp_workload.Spec_model.all) () =
  let buf = Buffer.create 16_384 in
  heading buf 1 "Value Prediction in VLIW Machines — evaluation report";
  paragraph buf
    (Printf.sprintf
       "Generated by the reproduction harness: %d-wide machine, profile \
        threshold %.2f, seed %d, %d benchmark(s). Every number below is \
        deterministic in this configuration."
       config.Config.width config.policy.Vp_vspec.Policy.threshold
       config.seed (List.length models));
  (* Declare every artifact on one graph before the first await: the
     scheduler runs the union barrier-free, and jobs that several
     artifacts share — [run_all]'s summaries, [table4]'s narrow-width
     points, the comparison leaf at the configured branch penalty — run
     once. Results are per-key deterministic, so awaiting in document
     order prints the same bytes whatever the drain order. *)
  let g = Vp_exec.Graph.create exec in
  let declare names =
    let entries = List.map (fun name -> Option.get (Artifact.find name)) names in
    List.combine entries
      (Artifact.nodes g ~config ~models ~format:`Ascii entries)
  in
  let sections = declare sections in
  (* The ablation block runs on the first model, one table per sweep of
     [Experiments.ablation_sweeps] titled by the sweep, and ends with that
     model's recovery sensitivity. *)
  let ablation =
    match models with
    | [] -> None
    | model :: _ ->
        let sweep (a : Experiments.ablation) =
          (a.sweep_title, Experiments.ablate g ~config model a.sweep_settings)
        in
        Some
          ( List.map sweep Experiments.ablation_sweeps,
            declare [ "recovery" ] )
  in
  let fenced level ((a : Artifact.t), node) =
    heading buf level a.title;
    fence buf (Artifact.text (Vp_exec.Graph.await g node))
  in
  List.iter (fenced 2) sections;
  heading buf 2 "Ablations";
  Option.iter
    (fun (sweeps, recovery) ->
      List.iter
        (fun (title, node) ->
          heading buf 3 title;
          fence buf
            (Experiments.render_ablation ~title (Vp_exec.Graph.await g node)))
        sweeps;
      List.iter (fenced 3) recovery)
    ablation;
  Buffer.contents buf

let write_file ?config ?exec ?models ~path () =
  let doc = generate ?config ?exec ?models () in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc doc)
