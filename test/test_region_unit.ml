(* Tests for Region_unit — the content-keyed region-formation memo — and
   the region fast lane built on it: physical sharing, store backing,
   version retirement, and byte-identity of the region experiments across
   cache states and worker counts. *)

let checki = Alcotest.(check int)
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
let sb_params = Vp_region.Superblock.default_params

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

(* --- digest registry --- *)

let test_digest_registered () =
  clear_memos ();
  let p, _ = Vliw_vp.Region_unit.superblock workload cfg sb_params in
  (match Vliw_vp.Region_unit.digest_of p with
  | None -> Alcotest.fail "formed program carries no digest"
  | Some d -> checki "hex digest" 32 (String.length d));
  checkb "basic-block program unregistered" true
    (Vliw_vp.Region_unit.digest_of (Vp_workload.Workload.program workload)
    = None)

let test_disabled_forms_fresh () =
  clear_memos ();
  Vliw_vp.Spec_unit.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Vliw_vp.Spec_unit.set_enabled true)
    (fun () ->
      let p1, t1 = Vliw_vp.Region_unit.superblock workload cfg sb_params in
      let p2, t2 = Vliw_vp.Region_unit.superblock workload cfg sb_params in
      checkb "fresh program per call" true (p1 != p2);
      checkb "still deterministic" true ((p1, t1) = (p2, t2));
      checkb "nothing registered" true
        (Vliw_vp.Region_unit.digest_of p1 = None);
      let s = Vliw_vp.Region_unit.stats () in
      checki "no lookups counted" 0 (s.hits + s.misses))

(* --- store backing and version retirement --- *)

let test_store_backing_and_version_bump () =
  (* Mirrors the spec-unit version test: artifacts written through an
     old-version store must be recomputed, not resurrected, after a
     version bump of the same cache directory. *)
  let dir = fresh_dir () in
  clear_memos ();
  let old_store = Vp_exec.Store.create ~version:"v-old" ~dir () in
  let p1, t1 =
    Vliw_vp.Region_unit.superblock ~store:old_store workload cfg sb_params
  in
  checki "cold misses (selection + merge)" 2
    (Vliw_vp.Region_unit.stats ()).misses;
  (* memory cleared, same store version: restored from disk and
     re-registered, so the digest identity survives the restore *)
  Vliw_vp.Region_unit.clear ();
  let same = Vp_exec.Store.create ~version:"v-old" ~dir () in
  let p2, t2 =
    Vliw_vp.Region_unit.superblock ~store:same workload cfg sb_params
  in
  let s = Vliw_vp.Region_unit.stats () in
  checki "store hit" 1 s.hits;
  checki "no recompute" 0 s.misses;
  checkb "restored structurally" true ((p1, t1) = (p2, t2));
  checkb "restored program registered" true
    (Vliw_vp.Region_unit.digest_of p2 <> None);
  (* version bump over the same directory: the stale entry is evicted and
     formation reruns from scratch *)
  Vliw_vp.Region_unit.clear ();
  let bumped = Vp_exec.Store.create ~version:"v-new" ~dir () in
  let p3, t3 =
    Vliw_vp.Region_unit.superblock ~store:bumped workload cfg sb_params
  in
  let s = Vliw_vp.Region_unit.stats () in
  checki "recomputed under new version" 2 s.misses;
  checki "no stale hit" 0 s.hits;
  checkb "same content either way" true ((p1, t1) = (p3, t3))

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
      ( "identity",
        [
          tc "digest registered" test_digest_registered;
          tc "disabled forms fresh" test_disabled_forms_fresh;
          tc "store backing + version bump" test_store_backing_and_version_bump;
        ] );
      ( "experiments",
        [
          tc "cold/warm/jobs byte-identity" test_cold_warm_jobs_identity;
          tc "frontier jobs byte-identity" test_frontier_jobs_identity;
        ] );
    ]
