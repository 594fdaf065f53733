(* Content-keyed region-formation memo: superblock / hyperblock formation
   shared across sweep points, runs and (store-backed) processes, plus the
   digest registry that gives formed programs a stable content identity.
   See the interface for the key construction and the physical-sharing
   contract. *)

type sb_result = Vp_ir.Program.t * Vp_region.Superblock.trace list
type hb_result = Vp_ir.Program.t * int

(* Formation results are small in number (a handful of models times a
   parameter grid), so the bounds exist only to bound pathological
   sweeps. *)
let traces : (string, Vp_region.Superblock.trace list) Vp_util.Memo.t =
  Vp_util.Memo.create 1024

let sb : (string, sb_result) Vp_util.Memo.t = Vp_util.Memo.create 1024
let hb : (string, hb_result) Vp_util.Memo.t = Vp_util.Memo.create 1024

let stats () = Vp_util.Memo.(total [ stats traces; stats sb; stats hb ])

(* --- Digest registry ---

   Formed programs carry their formation key as a content digest, keyed
   physically (formation memoization makes every holder of one key share
   one physical program, and programs restored from the store register on
   the way out). The registry is what lets downstream caches — spec-unit
   idents, experiment job keys — refer to a region program by a few dozen
   key bytes instead of marshalling the whole IR. *)
let registry : (Vp_ir.Program.t, string) Vp_util.Memo.t =
  Vp_util.Memo.create 1024 ~equal:( == )

let register program digest =
  ignore (Vp_util.Memo.find_or_add registry program (fun () -> digest))

let digest_of program = Vp_util.Memo.find_opt registry program

(* --- Keys ---

   [Workload.generate] is pure in [(seed, model)] and [Cfg.derive] in
   [(seed, workload)], so [(workload seed, model, cfg, params)] is a
   complete content address of a formation result. The model (not just its
   name) is in the key so custom models cannot collide. *)

let traces_key workload cfg (params : Vp_region.Superblock.params) =
  (* Trace selection never reads [stitch]: sweep points that vary only the
     stitch probability share one selection. *)
  Vp_exec.Store.key
    ( "region-traces",
      Vp_workload.Workload.seed workload,
      Vp_workload.Workload.model workload,
      cfg,
      params.max_blocks,
      params.min_probability,
      params.min_count )

let superblock_key ~seed workload cfg (params : Vp_region.Superblock.params) =
  Vp_exec.Store.key
    ( "region-superblock",
      seed,
      Vp_workload.Workload.seed workload,
      Vp_workload.Workload.model workload,
      cfg,
      params )

let hyperblock_key workload cfg (params : Vp_region.Hyperblock.params) =
  Vp_exec.Store.key
    ( "region-hyperblock",
      Vp_workload.Workload.seed workload,
      Vp_workload.Workload.model workload,
      cfg,
      params )

let superblock ?store ?(seed = 42) workload cfg params =
  let key = superblock_key ~seed workload cfg params in
  let ((program, _) as result) =
    Vp_exec.Store.cached ?store sb ~key (fun () ->
        let selected =
          Vp_exec.Store.cached ?store traces
            ~key:(traces_key workload cfg params)
            (fun () ->
              Vp_region.Superblock.select_traces cfg
                (Vp_workload.Workload.program workload)
                params)
        in
        Vp_region.Superblock.form ~seed ~traces:selected workload cfg params)
  in
  register program key;
  result

let hyperblock ?store workload cfg params =
  let key = hyperblock_key workload cfg params in
  let ((program, _) as result) =
    Vp_exec.Store.cached ?store hb ~key (fun () ->
        Vp_region.Hyperblock.form workload cfg params)
  in
  register program key;
  result

let clear () =
  Vp_util.Memo.clear traces;
  Vp_util.Memo.clear sb;
  Vp_util.Memo.clear hb;
  Vp_util.Memo.clear registry
