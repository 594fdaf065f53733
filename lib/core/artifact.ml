(* The artifact registry. Each entry declares the experiment's suite nodes
   on a caller's graph and one render node over them; the render node's
   value is the artifact's text plus the separator, so every driver —
   [vliw_vp all], the report, the subcommands, the serve daemon — reads
   the same bytes from the same node. *)

module G = Vp_exec.Graph
module E = Experiments

type format = [ `Ascii | `Csv ]

type command =
  | Table of { cmd : string; doc : string; csv : bool }
  | Bare of { cmd : string; doc : string }
  | Sweep of string

type t = {
  name : string;
  title : string;
  command : command option;
  declare :
    G.t ->
    key:string ->
    config:Config.t ->
    models:Vp_workload.Spec_model.t list ->
    format:format ->
    string G.node;
}

let separator = "\n"

(* The render node is a [~cache:false] reducer: its inputs are cached or
   deduped already, and rendering is cheaper than a store round trip. *)
let render g ~name ~key deps text =
  G.node g ~label:("render:" ^ name) ~group:"render" ~cache:false ~key ~deps
    (fun () -> text () ^ separator)

(* An entry whose [body] declares its suite nodes and returns them with
   the function that renders the text from their values. *)
let entry name title command body =
  {
    name;
    title;
    command;
    declare =
      (fun g ~key ~config ~models ~format ->
        let deps, text = body g ~config ~models ~format in
        render g ~name ~key deps text);
  }

(* An entry rendered from one suite node. *)
let of_suite name title command suite render_rows =
  entry name title command (fun g ~config ~models ~format ->
      let n = suite g ~config models in
      ([ G.pack n ], fun () -> render_rows ?format:(Some format) (G.value n)))

let table ?(csv = false) cmd doc = Some (Table { cmd; doc; csv })

(* One ablation table per model, each titled by its model and sweep. *)
let per_model ~format ~sweep nodes =
  ( List.map (fun (_, n) -> G.pack n) nodes,
    fun () ->
      String.concat separator
        (List.map
           (fun ((m : Vp_workload.Spec_model.t), n) ->
             E.render_ablation ~format
               ~title:(Printf.sprintf "%s: %s sweep" m.name sweep)
               (G.value n))
           nodes) )

let sweep g ~key ~config ~models ~format ~name points =
  let deps, text =
    per_model ~format ~sweep:name
      (List.map (fun m -> (m, E.config_sweep g ~config m points)) models)
  in
  render g ~name:("sweep:" ^ name) ~key deps text

let ablation (a : E.ablation) =
  entry ("ablate:" ^ a.sweep_name) a.sweep_title (Some (Sweep a.sweep_name))
    (fun g ~config ~models ~format ->
      per_model ~format ~sweep:a.sweep_name
        (List.map (fun m -> (m, E.ablate g ~config m a.sweep_settings)) models))

let all_sequence =
  [
    of_suite "table2" "Table 2 — execution-time fractions"
      (table ~csv:true "table2" "Reproduce Table 2 (execution-time fractions)")
      E.run_all E.render_table2;
    of_suite "table3" "Table 3 — effective schedule-length fractions"
      (table ~csv:true "table3" "Reproduce Table 3 (schedule-length fractions)")
      E.run_all E.render_table3;
    of_suite "table4" "Table 4 — issue width 4 vs 8"
      (table ~csv:true "table4" "Reproduce Table 4 (issue width 4 vs 8)")
      (fun g ~config ms -> E.table4 g ~config ms)
      E.render_table4;
    of_suite "fig8" "Figure 8 — schedule-length change distribution"
      (table ~csv:true "fig8"
         "Reproduce Figure 8 (schedule-length change distribution)")
      E.run_all E.render_figure8;
    of_suite "comparison" "Comparison with the static-recovery scheme"
      (table ~csv:true "compare"
         "Compare against the static-recovery scheme of [4]")
      E.comparison E.render_comparison;
    of_suite "regions" "Extension: superblock regions"
      (table "regions"
         "Superblock-region extension: basic-block vs region-granularity \
          value prediction")
      (fun g ~config ms -> E.regions g ~config ms)
      E.render_regions;
    of_suite "overlap" "Extension: overlap validation"
      (table "overlap"
         "Validate the per-block accounting against a shared-clock block \
          sequence")
      (fun g ~config ms -> E.overlap_validation g ~config ms)
      E.render_overlap;
    entry "example" "Worked example (Figures 2/3)"
      (Some
         (Bare
            {
              cmd = "example";
              doc = "Reproduce the paper's Figures 2/3 worked example";
            }))
      (fun _ ~config:_ ~models:_ ~format:_ ->
        ([], fun () -> Format.asprintf "%a" Example.describe ()));
  ]

let extensions =
  [
    of_suite "hyperblocks" "Extension: hyperblocks"
      (table "hyperblocks"
         "Hyperblock (if-conversion) extension: predicated regions vs basic \
          blocks")
      (fun g ~config ms -> E.hyperblocks g ~config ms)
      E.render_hyperblocks;
    of_suite "hardware" "Extension: hardware-mode validation"
      (table ~csv:true "hardware"
         "Hardware-mode validation: whole-program trace simulation with a \
          run-time value-prediction table")
      (fun g ~config ms -> E.hardware_validation g ~config ms)
      Trace_sim.render;
    of_suite "stability" "Seed stability"
      (table "stability" "Headline results across workload seeds (mean +/- sd)")
      (fun g ~config ms -> E.stability g ~config ms)
      E.render_stability;
    entry "recovery" "Recovery sensitivity" None
      (fun g ~config ~models ~format ->
        let model = List.hd models in
        let n = E.recovery_sensitivity g ~config model in
        ( [ G.pack n ],
          fun () ->
            E.render_recovery_sensitivity ~format
              ~bench:model.Vp_workload.Spec_model.name (G.value n) ));
    of_suite "regions:frontier" "Extension: region-parameter frontier"
      (table "frontier"
         "Region-parameter frontier: sweep superblock formation (max blocks \
          x min edge probability) across machine widths")
      (fun g ~config ms -> E.regions_frontier g ~config ms)
      E.render_regions_frontier;
  ]

let registry =
  all_sequence @ extensions @ List.map ablation E.ablation_sweeps

let find name = List.find_opt (fun a -> a.name = name) registry

let text value =
  String.sub value 0 (String.length value - String.length separator)

let stdout a value =
  match a.command with
  | Some (Table _) -> text value
  | Some (Bare _ | Sweep _) | None -> value

let shared_key ~config ~models ~format =
  Vp_exec.Store.key ("serve-render", models, config, format = `Csv)

let render_key ~shared ?points name = Vp_exec.Store.key (shared, points, name)

let nodes g ~config ~models ~format entries =
  let shared = shared_key ~config ~models ~format in
  List.map
    (fun a -> a.declare g ~key:(render_key ~shared a.name) ~config ~models ~format)
    entries
