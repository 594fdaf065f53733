(* Content-keyed region-formation memo: superblock / hyperblock formation
   shared across sweep points and runs within one process. See the
   interface for the key construction and the physical-sharing contract. *)

type sb_result = Vp_ir.Program.t * Vp_region.Superblock.trace list
type hb_result = Vp_ir.Program.t * int

(* Formation results are small in number (a handful of models times a
   parameter grid), so the bounds exist only to bound pathological
   sweeps. *)
let sb : (string, sb_result) Vp_util.Memo.t = Vp_util.Memo.create 1024
let hb : (string, hb_result) Vp_util.Memo.t = Vp_util.Memo.create 1024

let stats () = Vp_util.Memo.(total [ stats sb; stats hb ])

(* --- Keys ---

   [Workload.generate] is pure in [(seed, model)] and [Cfg.derive] in
   [(seed, workload)], so [(workload seed, model, cfg, params)] is a
   complete content address of a formation result. The model (not just its
   name) is in the key so custom models cannot collide. *)

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

let superblock ?(seed = 42) workload cfg params =
  Vp_util.Memo.find_or_add sb (superblock_key ~seed workload cfg params)
    (fun () -> Vp_region.Superblock.form ~seed workload cfg params)

let hyperblock workload cfg params =
  Vp_util.Memo.find_or_add hb (hyperblock_key workload cfg params) (fun () ->
      Vp_region.Hyperblock.form workload cfg params)

let clear () =
  Vp_util.Memo.clear sb;
  Vp_util.Memo.clear hb
