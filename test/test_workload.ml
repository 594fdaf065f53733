(* Tests for vp_workload: value streams, benchmark models, block generation,
   workload assembly. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let stream shape seed =
  Vp_workload.Value_stream.create (Vp_util.Rng.create seed) shape

(* --- Value streams --- *)

let test_constant_stream () =
  let s = stream (Vp_workload.Value_stream.Constant 9) 1 in
  Alcotest.(check (list int)) "always 9" [ 9; 9; 9 ]
    (Vp_workload.Value_stream.take s 3)

let test_strided_stream () =
  let s = stream (Vp_workload.Value_stream.Strided { base = 10; stride = 4 }) 1 in
  Alcotest.(check (list int)) "arithmetic" [ 10; 14; 18; 22 ]
    (Vp_workload.Value_stream.take s 4)

let test_periodic_stream () =
  let s = stream (Vp_workload.Value_stream.Periodic { period = 3 }) 2 in
  let v = Vp_workload.Value_stream.take s 9 in
  let a = List.nth v 0 and b = List.nth v 1 and c = List.nth v 2 in
  Alcotest.(check (list int)) "repeats with period 3" [ a; b; c; a; b; c ]
    (List.filteri (fun i _ -> i >= 3) v)

let test_noisy_periodic_rate () =
  let s =
    stream (Vp_workload.Value_stream.Noisy_periodic { period = 3; noise = 0.1 }) 3
  in
  let values = Vp_workload.Value_stream.take s 2000 in
  let rate =
    Predictor_ref.accuracy_of
      (Vp_predict.Predictor.Fcm { order = 2; table_bits = 12 })
      values
  in
  (* each noise event costs a handful of FCM predictions *)
  checkb "fcm rate in the mid band" true (rate > 0.5 && rate < 0.95)

let test_mostly_strided_rate () =
  let s =
    stream
      (Vp_workload.Value_stream.Mostly_strided
         { base = 0; stride = 4; jump_probability = 0.2 })
      4
  in
  let values = Vp_workload.Value_stream.take s 2000 in
  let rate = Predictor_ref.accuracy_of Vp_predict.Predictor.Stride values in
  checkb "stride rate ~ 1 - jump" true (abs_float (rate -. 0.8) < 0.07)

let test_pointer_chain_cycles () =
  let s = stream (Vp_workload.Value_stream.Pointer_chain { nodes = 5 }) 5 in
  let values = Vp_workload.Value_stream.take s 10 in
  let first5 = List.filteri (fun i _ -> i < 5) values in
  let next5 = List.filteri (fun i _ -> i >= 5) values in
  Alcotest.(check (list int)) "walks the same cycle" first5 next5;
  checki "visits all nodes" 5 (List.length (List.sort_uniq compare first5))

let test_random_stream_range () =
  let s = stream (Vp_workload.Value_stream.Random { range = 100 }) 6 in
  List.iter
    (fun v -> checkb "in range" true (v >= 0 && v < 100))
    (Vp_workload.Value_stream.take s 500)

let test_stream_determinism () =
  List.iter
    (fun shape ->
      let a = Vp_workload.Value_stream.take (stream shape 42) 50 in
      let b = Vp_workload.Value_stream.take (stream shape 42) 50 in
      checkb "same seed, same stream" true (a = b))
    [
      Vp_workload.Value_stream.Constant 1;
      Strided { base = 0; stride = 2 };
      Periodic { period = 4 };
      Noisy_periodic { period = 4; noise = 0.2 };
      Mostly_strided { base = 0; stride = 4; jump_probability = 0.3 };
      Pointer_chain { nodes = 7 };
      Random { range = 1000 };
    ]

let test_stream_validation () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  checkb "period 0" true
    (raises (fun () -> stream (Vp_workload.Value_stream.Periodic { period = 0 }) 1));
  checkb "chain 0 nodes" true
    (raises (fun () -> stream (Vp_workload.Value_stream.Pointer_chain { nodes = 0 }) 1));
  checkb "random range 0" true
    (raises (fun () -> stream (Vp_workload.Value_stream.Random { range = 0 }) 1))

(* --- Spec models --- *)

let test_models_well_formed () =
  checki "eight benchmarks" 8 (List.length Vp_workload.Spec_model.all);
  List.iter
    (fun (m : Vp_workload.Spec_model.t) ->
      checkb "blocks > 0" true (m.num_blocks > 0);
      checkb "size sane" true (m.block_size_mean >= 4);
      checkb "fractions in [0,1]" true
        (m.mem_fraction >= 0.0 && m.mem_fraction <= 1.0
        && m.store_fraction >= 0.0 && m.store_fraction <= 1.0
        && m.dep_density >= 0.0 && m.dep_density <= 1.0);
      let weight_sum =
        List.fold_left
          (fun acc (sw : Vp_workload.Spec_model.shape_weight) ->
            acc +. sw.weight)
          0.0 m.shape_mix
      in
      checkb "mix weights sum to ~1" true (abs_float (weight_sum -. 1.0) < 0.01))
    Vp_workload.Spec_model.all

let test_by_name () =
  checkb "compress found" true (Vp_workload.Spec_model.by_name "compress" <> None);
  checkb "tjpeg aliases ijpeg" true
    (match Vp_workload.Spec_model.by_name "TJPEG" with
    | Some m -> m.name = "ijpeg"
    | None -> false);
  checkb "unknown" true (Vp_workload.Spec_model.by_name "gcc" = None)

let test_int_vs_fp () =
  checki "five INT" 5 (List.length Vp_workload.Spec_model.spec_int);
  checki "three FP" 3 (List.length Vp_workload.Spec_model.spec_fp);
  List.iter
    (fun (m : Vp_workload.Spec_model.t) ->
      checkb "INT has no FP ops" true (m.float_fraction = 0.0))
    Vp_workload.Spec_model.spec_int;
  List.iter
    (fun (m : Vp_workload.Spec_model.t) ->
      checkb "FP has FP ops" true (m.float_fraction > 0.0))
    Vp_workload.Spec_model.spec_fp

(* --- Block generation --- *)

let gen_block ?(seed = 1) model =
  Vp_workload.Block_gen.generate model ~rng:(Vp_util.Rng.create seed)
    ~stream_base:100 ~label:"t"

let test_block_gen_shape () =
  List.iter
    (fun model ->
      for seed = 1 to 20 do
        let block, shapes = gen_block ~seed model in
        checkb "at least 4 ops" true (Vp_ir.Block.size block >= 4);
        let loads = Vp_ir.Block.loads block in
        checki "one shape per load" (List.length loads) (List.length shapes);
        (* stream ids are contiguous from stream_base in program order *)
        List.iteri
          (fun i (op : Vp_ir.Operation.t) ->
            checki "stream id" (100 + i) (Option.get op.stream))
          loads
      done)
    Vp_workload.Spec_model.all

let test_block_gen_determinism () =
  let model = Vp_workload.Spec_model.vortex in
  let b1, s1 = gen_block ~seed:7 model in
  let b2, s2 = gen_block ~seed:7 model in
  checkb "same block" true
    (Array.to_list (Vp_ir.Block.ops b1) = Array.to_list (Vp_ir.Block.ops b2));
  checkb "same shapes" true (s1 = s2)

let test_block_gen_stores_late () =
  (* stores never precede loads (the deferred-store convention) *)
  List.iter
    (fun seed ->
      let block, _ = gen_block ~seed Vp_workload.Spec_model.compress in
      let ops = Array.to_list (Vp_ir.Block.ops block) in
      let first_store =
        List.find_index (fun o -> Vp_ir.Operation.is_store o) ops
      in
      match first_store with
      | None -> ()
      | Some i ->
          List.iteri
            (fun j (o : Vp_ir.Operation.t) ->
              if j > i then
                checkb "only stores/branch after first store" true
                  (Vp_ir.Operation.is_store o
                  || Vp_ir.Operation.is_branch o
                  || o.opcode = Vp_ir.Opcode.Cmp))
            ops)
    (List.init 20 (fun i -> i + 1))

(* --- Workload --- *)

let test_workload_generate () =
  let w = Vp_workload.Workload.generate ~seed:5 Vp_workload.Spec_model.li in
  let p = Vp_workload.Workload.program w in
  checki "block count" Vp_workload.Spec_model.li.num_blocks
    (Vp_ir.Program.num_blocks p);
  Array.iter
    (fun (wb : Vp_ir.Program.weighted_block) ->
      checkb "every block executes" true (wb.count >= 1))
    (Vp_ir.Program.blocks p);
  (* every load's stream id resolves to a shape *)
  Array.iter
    (fun (wb : Vp_ir.Program.weighted_block) ->
      List.iter
        (fun (op : Vp_ir.Operation.t) ->
          ignore (Vp_workload.Workload.shape w (Option.get op.stream)))
        (Vp_ir.Block.loads wb.block))
    (Vp_ir.Program.blocks p)

let test_workload_determinism () =
  let w1 = Vp_workload.Workload.generate ~seed:9 Vp_workload.Spec_model.swim in
  let w2 = Vp_workload.Workload.generate ~seed:9 Vp_workload.Spec_model.swim in
  checki "same streams" (Vp_workload.Workload.num_streams w1)
    (Vp_workload.Workload.num_streams w2);
  let v1 = Vp_workload.Value_stream.take (Vp_workload.Workload.stream w1 0) 20 in
  let v2 = Vp_workload.Value_stream.take (Vp_workload.Workload.stream w2 0) 20 in
  checkb "stream values replay" true (v1 = v2);
  (* a different seed changes the program *)
  let w3 = Vp_workload.Workload.generate ~seed:10 Vp_workload.Spec_model.swim in
  let ops w =
    Vp_ir.Program.total_operations (Vp_workload.Workload.program w)
  in
  checkb "different seed differs" true
    (ops w3 <> ops w1
    || Vp_workload.Value_stream.take (Vp_workload.Workload.stream w3 0) 20 <> v1)

let test_workload_stream_replay () =
  (* stream instances are independent replays *)
  let w = Vp_workload.Workload.generate Vp_workload.Spec_model.compress in
  let a = Vp_workload.Workload.stream w 3 in
  ignore (Vp_workload.Value_stream.take a 10);
  let b = Vp_workload.Workload.stream w 3 in
  checkb "fresh instance starts over" true
    (Vp_workload.Value_stream.take b 1
    = [ List.hd (Vp_workload.Value_stream.take (Vp_workload.Workload.stream w 3) 1) ])

let test_workload_invalid_stream () =
  let w = Vp_workload.Workload.generate Vp_workload.Spec_model.compress in
  checkb "bad id rejected" true
    (try ignore (Vp_workload.Workload.shape w 999_999); false
     with Invalid_argument _ -> true)

(* --- Stream arenas --- *)

(* A model whose load mix spans every stream shape — the spec models
   between them never use plain [Periodic] — so the arena-vs-take
   equality below exercises all seven, including the RNG-carrying ones
   (noisy-periodic draws per value; pointer-chain and periodic seed their
   structure at creation). *)
let every_shape_model =
  let sw shape =
    { Vp_workload.Spec_model.weight = 1.0 /. 7.0; dist = Fixed shape }
  in
  let open Vp_workload.Value_stream in
  {
    Vp_workload.Spec_model.compress with
    name = "arena-coverage";
    num_blocks = 24;
    shape_mix =
      [
        sw (Constant 9);
        sw (Strided { base = 10; stride = 4 });
        sw (Periodic { period = 3 });
        sw (Noisy_periodic { period = 3; noise = 0.1 });
        sw (Mostly_strided { base = 0; stride = 4; jump_probability = 0.3 });
        sw (Pointer_chain { nodes = 7 });
        sw (Random { range = 1000 });
      ];
    chain_mix = None;
  }

let test_arena_matches_take () =
  let w = Vp_workload.Workload.generate ~seed:11 every_shape_model in
  let covered = Hashtbl.create 8 in
  for id = 0 to Vp_workload.Workload.num_streams w - 1 do
    Hashtbl.replace covered
      (Vp_workload.Value_stream.shape_name (Vp_workload.Workload.shape w id))
      ();
    let n = 200 in
    let arena = Vp_workload.Workload.arena w id ~min_len:n in
    let taken =
      Vp_workload.Value_stream.take (Vp_workload.Workload.stream w id) n
    in
    Alcotest.(check (list int))
      (Printf.sprintf "stream %d arena = take" id)
      taken
      (Array.to_list (Array.sub arena 0 n))
  done;
  checki "all seven shapes exercised" 7 (Hashtbl.length covered)

let test_arena_growth () =
  (* Growing an arena continues the same stream, it never re-draws. *)
  let w = Vp_workload.Workload.generate ~seed:12 every_shape_model in
  let id = 0 in
  let small = Array.sub (Vp_workload.Workload.arena w id ~min_len:10) 0 10 in
  let grown = Vp_workload.Workload.arena w id ~min_len:500 in
  Alcotest.(check (list int))
    "grown prefix unchanged"
    (Array.to_list small)
    (Array.to_list (Array.sub grown 0 10));
  Alcotest.(check (list int))
    "grown suffix = take"
    (Vp_workload.Value_stream.take (Vp_workload.Workload.stream w id) 500)
    (Array.to_list (Array.sub grown 0 500))

let test_arena_shared_across_generate () =
  (* Two generates of the same (model, seed) share one cache entry; the
     values are a pure function of the key, so sharing is unobservable. *)
  let a = Vp_workload.Workload.generate ~seed:13 every_shape_model in
  let b = Vp_workload.Workload.generate ~seed:13 every_shape_model in
  let va = Array.sub (Vp_workload.Workload.arena a 1 ~min_len:50) 0 50 in
  let vb = Array.sub (Vp_workload.Workload.arena b 1 ~min_len:50) 0 50 in
  Alcotest.(check (list int))
    "same values" (Array.to_list va) (Array.to_list vb)

(* An arena holds the values of its own stream: two models sharing a
   name, at one seed, whose streams differ in shape each read their own
   values, in either order of first use. *)
let test_arena_same_name_models () =
  let stock = Vp_workload.Spec_model.compress in
  let constant =
    {
      stock with
      shape_mix =
        [
          {
            Vp_workload.Spec_model.weight = 1.0;
            dist = Fixed (Vp_workload.Value_stream.Constant 7);
          };
        ];
      chain_mix = None;
    }
  in
  List.iter
    (fun (seed, models) ->
      List.iter
        (fun (model : Vp_workload.Spec_model.t) ->
          let w = Vp_workload.Workload.generate ~seed model in
          for id = 0 to 3 do
            Alcotest.(check (list int))
              (Printf.sprintf "seed %d stream %d arena = take" seed id)
              (Vp_workload.Value_stream.take
                 (Vp_workload.Workload.stream w id)
                 4)
              (Array.to_list
                 (Array.sub (Vp_workload.Workload.arena w id ~min_len:4) 0 4))
          done)
        models)
    [ (5, [ stock; constant ]); (6, [ constant; stock ]) ]

let test_total_counts_near_target () =
  List.iter
    (fun (model : Vp_workload.Spec_model.t) ->
      let w = Vp_workload.Workload.generate model in
      let total =
        Array.fold_left
          (fun acc (wb : Vp_ir.Program.weighted_block) -> acc + wb.count)
          0
          (Vp_ir.Program.blocks (Vp_workload.Workload.program w))
      in
      (* rounding and the >=1 floor distort the total a little *)
      checkb "dynamic executions near target" true
        (float_of_int (abs (total - model.dynamic_executions))
        < 0.25 *. float_of_int model.dynamic_executions))
    Vp_workload.Spec_model.all

(* Statistical contract of the generator: realized fractions track the
   model's parameters over a large sample. *)
let test_generator_statistics () =
  List.iter
    (fun (model : Vp_workload.Spec_model.t) ->
      let rng = Vp_util.Rng.create 99 in
      let total = ref 0 and mem = ref 0 and stores = ref 0 and sizes = ref [] in
      for _ = 1 to 200 do
        let block, _ =
          Vp_workload.Block_gen.generate model ~rng ~stream_base:0 ~label:"s"
        in
        sizes := float_of_int (Vp_ir.Block.size block) :: !sizes;
        Array.iter
          (fun (o : Vp_ir.Operation.t) ->
            incr total;
            if Vp_ir.Opcode.is_memory o.opcode then incr mem;
            if Vp_ir.Operation.is_store o then incr stores)
          (Vp_ir.Block.ops block)
      done;
      let frac a b = float_of_int a /. float_of_int b in
      (* the model's fractions govern the block BODY; the cmp+branch
         epilogue (2 ops on branch-terminated blocks) dilutes the realized
         whole-block fraction, so compare against the diluted expectation *)
      let mean_size = Vp_util.Stats.mean !sizes in
      let dilution =
        (mean_size -. (2.0 *. model.branch_fraction)) /. mean_size
      in
      checkb
        (model.name ^ ": memory fraction tracks the model")
        true
        (abs_float (frac !mem !total -. (model.mem_fraction *. dilution))
        < 0.04);
      checkb
        (model.name ^ ": store share of memory ops")
        true
        (abs_float (frac !stores !mem -. model.store_fraction) < 0.07);
      checkb
        (model.name ^ ": mean block size tracks the model")
        true
        (abs_float (mean_size -. float_of_int model.block_size_mean)
        < 0.25 *. float_of_int model.block_size_mean))
    Vp_workload.Spec_model.all

let test_shape_mix_statistics () =
  (* drawn shapes follow the configured weights *)
  let model = Vp_workload.Spec_model.compress in
  let rng = Vp_util.Rng.create 5 in
  let n = 5000 in
  let random = ref 0 in
  for _ = 1 to n do
    match Vp_workload.Spec_model.draw_shape model rng with
    | Vp_workload.Value_stream.Random _ -> incr random
    | _ -> ()
  done;
  let weight_of_random =
    List.fold_left
      (fun acc (sw : Vp_workload.Spec_model.shape_weight) ->
        match sw.dist with Random -> acc +. sw.weight | _ -> acc)
      0.0 model.shape_mix
  in
  checkb "random share tracks its weight" true
    (abs_float ((float_of_int !random /. float_of_int n) -. weight_of_random)
    < 0.03)

let prop_generated_blocks_valid =
  QCheck.Test.make ~name:"generated blocks build valid dependence graphs"
    ~count:150
    QCheck.(pair int (int_bound 7))
    (fun (seed, pick) ->
      let model =
        List.nth Vp_workload.Spec_model.all
          (pick mod List.length Vp_workload.Spec_model.all)
      in
      let block, _ =
        Vp_workload.Block_gen.generate model
          ~rng:(Vp_util.Rng.create seed)
          ~stream_base:0 ~label:"p"
      in
      let g =
        Vp_ir.Depgraph.build
          ~latency:(Vp_machine.Descr.latency (Vp_machine.Descr.playdoh ~width:4))
          block
      in
      Vp_ir.Depgraph.size g = Vp_ir.Block.size block)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "vp_workload"
    [
      ( "value_stream",
        [
          tc "constant" test_constant_stream;
          tc "strided" test_strided_stream;
          tc "periodic" test_periodic_stream;
          tc "noisy periodic rate band" test_noisy_periodic_rate;
          tc "mostly strided rate" test_mostly_strided_rate;
          tc "pointer chain cycles" test_pointer_chain_cycles;
          tc "random range" test_random_stream_range;
          tc "determinism" test_stream_determinism;
          tc "validation" test_stream_validation;
        ] );
      ( "spec_model",
        [
          tc "well formed" test_models_well_formed;
          tc "by name" test_by_name;
          tc "INT vs FP" test_int_vs_fp;
        ] );
      ( "block_gen",
        [
          tc "shape" test_block_gen_shape;
          tc "determinism" test_block_gen_determinism;
          tc "stores late" test_block_gen_stores_late;
        ] );
      ( "workload",
        [
          tc "generate" test_workload_generate;
          tc "determinism" test_workload_determinism;
          tc "stream replay" test_workload_stream_replay;
          tc "invalid stream" test_workload_invalid_stream;
          tc "arena matches take (all shapes)" test_arena_matches_take;
          tc "arena growth" test_arena_growth;
          tc "arena shared across generates" test_arena_shared_across_generate;
          tc "arena per stream, not per model name" test_arena_same_name_models;
          tc "counts near target" test_total_counts_near_target;
          tc "generator statistics" test_generator_statistics;
          tc "shape mix statistics" test_shape_mix_statistics;
          QCheck_alcotest.to_alcotest prop_generated_blocks_valid;
        ] );
    ]
