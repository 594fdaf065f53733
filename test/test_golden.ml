(* Golden tests: pin the headline experiment numbers at the default
   configuration (seed 42, 4-wide, threshold 0.65).

   Everything in the pipeline is deterministic, so these are exact-value
   regression tests for the calibration recorded in EXPERIMENTS.md: if a
   change moves a table, it must be deliberate, and EXPERIMENTS.md must be
   regenerated alongside this file. Tolerances are one unit in the last
   reported digit. *)

let close ?(tol = 0.005) name expected actual =
  if abs_float (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.4f, measured %.4f (see EXPERIMENTS.md)"
      name expected actual

(* (benchmark, table2 best, table2 worst, table3 best, table3 worst) *)
let expectations =
  [
    ("compress", 0.51, 0.139, 0.84, 1.23);
    ("ijpeg", 0.46, 0.102, 0.87, 1.06);
    ("li", 0.52, 0.130, 0.80, 1.11);
    ("m88ksim", 0.52, 0.050, 0.80, 1.15);
    ("vortex", 0.62, 0.085, 0.83, 1.24);
    ("hydro2d", 0.73, 0.052, 0.80, 1.24);
    ("swim", 0.47, 0.038, 0.95, 0.97);
    ("tomcatv", 0.33, 0.039, 0.97, 1.12);
  ]

let summaries =
  lazy (Vliw_vp.Experiments.run_all Vp_workload.Spec_model.all)

let summary name =
  List.find
    (fun s -> Vliw_vp.Experiments.name s = name)
    (Lazy.force summaries)

let test_tables () =
  List.iter
    (fun (name, t2b, t2w, t3b, t3w) ->
      let s = summary name in
      close (name ^ " table2 best") t2b s.fractions.best;
      close ~tol:0.002 (name ^ " table2 worst") t2w s.fractions.worst;
      close (name ^ " table3 best") t3b s.ratios.best;
      close (name ^ " table3 worst") t3w s.ratios.worst)
    expectations

let test_means () =
  let mean f =
    Vp_util.Stats.mean (List.map f (Lazy.force summaries))
  in
  (* the headline claims: best-case time fraction ~0.5 (paper: "half of the
     overall time"), best-case schedule reduction ~15% *)
  close ~tol:0.01 "mean table2 best" 0.52
    (mean (fun s -> s.fractions.best));
  close ~tol:0.01 "mean table3 best" 0.86 (mean (fun s -> s.ratios.best))

let test_example_cycles () =
  Alcotest.(check int) "original" 11 (Vliw_vp.Example.original_cycles ());
  List.iter
    (fun (c : Vliw_vp.Example.case) ->
      let expected =
        if Vp_engine.Scenario.is_all_correct c.outcomes then 7 else 12
      in
      Alcotest.(check int) c.label expected c.result.cycles)
    (Vliw_vp.Example.cases ())

let test_figure8_pooled () =
  let pooled =
    Vp_metrics.Summary.figure8
      (Array.concat
         (List.map
            (fun (s : Vliw_vp.Experiments.benchmark_summary) -> s.stats)
            (Lazy.force summaries)))
  in
  let fracs = Vp_util.Histogram.fractions pooled in
  close ~tol:0.02 "+1..4 bucket" 0.47 (List.assoc "+1..4" fracs);
  close ~tol:0.02 "unchanged bucket" 0.49 (List.assoc "unchanged" fracs);
  Alcotest.(check bool) "degradations are rare" true
    (List.assoc "degraded" fracs < 0.02)

let test_comparison_shape () =
  List.iter
    (fun (m : Vp_workload.Spec_model.t) ->
      let c = Vliw_vp.Experiments.comparison_of (Vliw_vp.Pipeline.run m) in
      Alcotest.(check bool)
        (m.name ^ ": static scheme worse")
        true
        (c.recovery_comp_share > c.ours_comp_share
        && c.recovery_spec_ratio >= c.ours_spec_ratio -. 1e-9))
    Vp_workload.Spec_model.all

(* Overlap validation at the defaults, recorded before the per-block memo
   in [overlap_row]: (benchmark, sequence total, sum VLIW-retire, sum
   full-drain, stalls). Every state must be ok. *)
let overlap_expectations =
  [
    ("compress", 3705, 3722, 3740, 161);
    ("ijpeg", 3688, 3786, 3871, 54);
    ("li", 2746, 2780, 2851, 157);
    ("m88ksim", 3416, 3444, 3537, 195);
    ("vortex", 5600, 5586, 5663, 334);
    ("hydro2d", 6086, 6066, 6074, 406);
    ("swim", 4823, 4884, 4919, 3);
    ("tomcatv", 4942, 5052, 5075, 41);
  ]

let test_overlap_rows () =
  let rows =
    Vliw_vp.Experiments.overlap_validation Vp_workload.Spec_model.all
  in
  Alcotest.(check int) "one row per benchmark"
    (List.length overlap_expectations) (List.length rows);
  List.iter2
    (fun (name, total, vliw, drain, stalls)
         (r : Vliw_vp.Experiments.overlap_row) ->
      Alcotest.(check string) "benchmark" name r.overlap_bench;
      Alcotest.(check int) (name ^ " sequence total") total r.sequence_total;
      Alcotest.(check int) (name ^ " sum VLIW-retire") vliw r.sum_vliw;
      Alcotest.(check int) (name ^ " sum full-drain") drain r.sum_drain;
      Alcotest.(check int) (name ^ " stalls") stalls r.sequence_stalls;
      Alcotest.(check bool) (name ^ " state ok") true r.sequence_ok)
    overlap_expectations rows

(* The superblock-region table at the defaults, every cell as its CSV
   prints it: the speedups' [x] is in the header, not the cell. *)
let regions_expectations =
  [
    "compress,0.84,0.86,1.068,1.083,18,3.4";
    "ijpeg,0.87,0.89,1.069,1.073,18,3.7";
    "li,0.80,0.81,1.119,1.124,23,3.5";
    "m88ksim,0.80,0.81,1.120,1.126,19,3.4";
    "vortex,0.83,0.85,1.106,1.117,22,3.0";
    "hydro2d,0.80,0.81,1.150,1.169,19,3.4";
    "swim,0.95,0.94,1.025,1.031,20,3.2";
    "tomcatv,0.97,0.95,1.005,1.015,17,3.6";
  ]

let test_regions_cells () =
  let csv =
    Vliw_vp.Experiments.render_regions ~format:`Csv
      (Vliw_vp.Experiments.regions Vp_workload.Spec_model.all)
  in
  match List.filter (( <> ) "") (String.split_on_char '\n' csv) with
  | [] -> Alcotest.fail "empty regions table"
  | _header :: rows ->
      Alcotest.(check int) "one row per benchmark"
        (List.length regions_expectations) (List.length rows);
      List.iter2
        (fun expected row ->
          let cells = String.split_on_char ',' in
          Alcotest.(check (list string))
            (List.hd (cells expected)) (cells expected) (cells row))
        regions_expectations rows

let () =
  Alcotest.run "golden"
    [
      ( "defaults (seed 42, 4-wide)",
        [
          Alcotest.test_case "tables 2 and 3" `Slow test_tables;
          Alcotest.test_case "means" `Slow test_means;
          Alcotest.test_case "worked example cycles" `Quick test_example_cycles;
          Alcotest.test_case "figure 8 pooled" `Slow test_figure8_pooled;
          Alcotest.test_case "comparison shape" `Slow test_comparison_shape;
          Alcotest.test_case "overlap rows" `Slow test_overlap_rows;
          Alcotest.test_case "regions cells" `Slow test_regions_cells;
        ] );
    ]
