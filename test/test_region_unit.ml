(* Tests for Region_unit — the content-keyed region-formation memo — and
   the region fast lane built on it: physical sharing, and byte-identity
   of the region experiments across cache states and worker counts. *)

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* A throwaway directory per call; unique via pid + counter. *)
let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "vp_region_unit_test_%d_%d" (Unix.getpid ()) !n)

let workload = Vp_workload.Workload.generate Vp_workload.Spec_model.li
let cfg = Vp_workload.Cfg.derive workload

let par_jobs =
  match Option.bind (Sys.getenv_opt "VP_TEST_JOBS") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> 4

let clear_memos () =
  Vliw_vp.Region_unit.clear ();
  Vliw_vp.Spec_unit.clear ()

(* --- cached formation = fresh formation, property-tested --- *)

let prop_superblock_cached_equals_fresh =
  QCheck.Test.make ~count:40
    ~name:"cached superblock formation = fresh formation"
    QCheck.(
      quad (int_bound 7) (int_bound 10) (int_bound 20) (int_bound 10))
    (fun (mb, prob10, min_count, stitch10) ->
      let params =
        {
          Vp_region.Superblock.max_blocks = 1 + mb;
          min_probability = float_of_int prob10 /. 10.0;
          min_count;
          stitch = float_of_int stitch10 /. 10.0;
        }
      in
      let fresh = Vp_region.Superblock.form workload cfg params in
      let cached = Vliw_vp.Region_unit.superblock workload cfg params in
      let again = Vliw_vp.Region_unit.superblock workload cfg params in
      (* structurally the uncached result, physically shared on repeat *)
      cached = fresh && fst again == fst cached)

let prop_hyperblock_cached_equals_fresh =
  QCheck.Test.make ~count:40
    ~name:"cached hyperblock formation = fresh formation"
    QCheck.(pair (int_bound 10) (int_bound 24))
    (fun (taken10, cold) ->
      let params =
        {
          Vp_region.Hyperblock.min_taken = float_of_int taken10 /. 10.0;
          max_cold_size = cold;
        }
      in
      let fresh = Vp_region.Hyperblock.form workload cfg params in
      let cached = Vliw_vp.Region_unit.hyperblock workload cfg params in
      let again = Vliw_vp.Region_unit.hyperblock workload cfg params in
      cached = fresh && fst again == fst cached)

(* --- the region experiments: byte-identity across cache states --- *)

let small_config =
  { Vliw_vp.Config.default with trace_length = 1_000; monte_carlo_draws = 8 }

let small_models = [ Vp_workload.Spec_model.compress ]

let render_both ~exec () =
  Vliw_vp.Experiments.render_regions
    (Vliw_vp.Experiments.regions ~config:small_config ~exec small_models)
  ^ Vliw_vp.Experiments.render_hyperblocks
      (Vliw_vp.Experiments.hyperblocks ~config:small_config ~exec
         small_models)

let test_cold_warm_jobs_identity () =
  let store = Vp_exec.Store.create ~dir:(fresh_dir ()) () in
  clear_memos ();
  let cold = render_both ~exec:(Vp_exec.Context.create ~store ()) () in
  checkb "non-empty render" true (String.length cold > 0);
  (* warm in-process repeat: every memo layer hot *)
  let warm = render_both ~exec:(Vp_exec.Context.create ~store ()) () in
  checks "cold = warm" cold warm;
  (* cleared memos over the warm on-disk store, drained in parallel *)
  clear_memos ();
  let par =
    render_both ~exec:(Vp_exec.Context.create ~store ~jobs:par_jobs ()) ()
  in
  checks "jobs=1 = jobs=N over the warm store" cold par;
  (* storeless sequential reference *)
  clear_memos ();
  let seq = render_both ~exec:Vp_exec.Context.sequential () in
  checks "cached = storeless reference" cold seq

let test_frontier_jobs_identity () =
  let mk ~exec =
    Vliw_vp.Experiments.render_regions_frontier
      (Vliw_vp.Experiments.regions_frontier ~config:small_config ~exec
         ~max_blocks:[ 2; 4 ] ~min_probabilities:[ 0.5; 0.8 ] ~widths:[ 4 ]
         small_models)
  in
  clear_memos ();
  let seq = mk ~exec:Vp_exec.Context.sequential in
  checkb "non-empty frontier" true (String.length seq > 0);
  let par = mk ~exec:(Vp_exec.Context.create ~jobs:par_jobs ()) in
  checks "frontier jobs=1 = jobs=N" seq par

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "region_unit"
    [
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest prop_superblock_cached_equals_fresh;
          QCheck_alcotest.to_alcotest prop_hyperblock_cached_equals_fresh;
        ] );
      ( "experiments",
        [
          tc "cold/warm/jobs byte-identity" test_cold_warm_jobs_identity;
          tc "frontier jobs byte-identity" test_frontier_jobs_identity;
        ] );
    ]
