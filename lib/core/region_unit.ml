(* Content-keyed region-formation memo: superblock / hyperblock formation
   shared across sweep points, runs and (store-backed) processes, plus the
   digest registry that gives formed programs a stable content identity.
   See the interface for the key construction and the physical-sharing
   contract.

   Sharded like [Spec_unit]: a formation key hashes to one of
   [stripe_count] stripes, each with its own mutex and tables, so worker
   domains draining a frontier sweep contend on a fraction of the lock
   traffic. Computation runs outside the stripe lock — racing domains can
   duplicate a formation but never see a partial entry, and the first
   insert wins so every caller of one key shares one physical program. *)

type sb_result = Vp_ir.Program.t * Vp_region.Superblock.trace list
type hb_result = Vp_ir.Program.t * int

type stripe = {
  lock : Mutex.t;
  traces : (string, Vp_region.Superblock.trace list) Hashtbl.t;
  sb : (string, sb_result) Hashtbl.t;
  hb : (string, hb_result) Hashtbl.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
  evictions : int Atomic.t;
}

let stripe_count = 16

let stripes =
  Array.init stripe_count (fun _ ->
      {
        lock = Mutex.create ();
        traces = Hashtbl.create 16;
        sb = Hashtbl.create 16;
        hb = Hashtbl.create 16;
        hits = Atomic.make 0;
        misses = Atomic.make 0;
        evictions = Atomic.make 0;
      })

let stripe_of key = stripes.(Hashtbl.hash key land (stripe_count - 1))

(* Formation results are small in number (a handful of models times a
   parameter grid), so the caps exist only to bound pathological sweeps;
   a full stripe resets alone, like the spec-unit tables. *)
let table_cap = 1024 / stripe_count

let stats () =
  Array.fold_left
    (fun (acc : Spec_unit.stats) s : Spec_unit.stats ->
      {
        hits = acc.hits + Atomic.get s.hits;
        misses = acc.misses + Atomic.get s.misses;
        evictions = acc.evictions + Atomic.get s.evictions;
      })
    { Spec_unit.hits = 0; misses = 0; evictions = 0 }
    stripes

(* --- Digest registry ---

   Formed programs carry their formation key as a content digest, keyed
   physically (formation memoization makes every holder of one key share
   one physical program, and programs restored from the store register on
   the way out). The registry is what lets downstream caches — spec-unit
   idents, experiment job keys — refer to a region program by a few dozen
   key bytes instead of marshalling the whole IR. *)
module Prog_tbl = Hashtbl.Make (struct
  type t = Vp_ir.Program.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let registry : string Prog_tbl.t = Prog_tbl.create 64
let registry_mutex = Mutex.create ()
let registry_cap = 1024

let register program digest =
  Mutex.protect registry_mutex (fun () ->
      if Prog_tbl.length registry >= registry_cap then Prog_tbl.reset registry;
      if not (Prog_tbl.mem registry program) then
        Prog_tbl.add registry program digest)

let digest_of program =
  Mutex.protect registry_mutex (fun () -> Prog_tbl.find_opt registry program)

(* --- Keys ---

   [Workload.generate] is pure in [(seed, model)] and [Cfg.derive] in
   [(seed, workload)], so [(workload seed, model, cfg, params)] is a
   complete content address of a formation result. The model (not just its
   name) is marshalled so custom models cannot collide; [Closures] because
   models embed stream generators — stable within one binary, which is the
   store's validity domain anyway. [Spec_unit.version] is hashed in
   because the digest doubles as the content identity every downstream
   spec-unit artifact key is derived from: a version bump must retire
   region artifacts with the rest. *)
let digest_key payload =
  Digest.to_hex (Digest.string (Marshal.to_string payload [ Marshal.Closures ]))

let traces_key workload cfg (params : Vp_region.Superblock.params) =
  (* Trace selection never reads [stitch]: sweep points that vary only the
     stitch probability share one selection. *)
  digest_key
    ( "region-traces",
      Spec_unit.version,
      Vp_workload.Workload.seed workload,
      Vp_workload.Workload.model workload,
      cfg,
      params.max_blocks,
      params.min_probability,
      params.min_count )

let superblock_key ~seed workload cfg (params : Vp_region.Superblock.params) =
  digest_key
    ( "region-superblock",
      Spec_unit.version,
      seed,
      Vp_workload.Workload.seed workload,
      Vp_workload.Workload.model workload,
      cfg,
      params )

let hyperblock_key workload cfg (params : Vp_region.Hyperblock.params) =
  digest_key
    ( "region-hyperblock",
      Spec_unit.version,
      Vp_workload.Workload.seed workload,
      Vp_workload.Workload.model workload,
      cfg,
      params )

(* Memory, then store, then compute, computation outside the stripe lock;
   the first insert wins, so racing domains converge on one physical
   value — rechecking under the lock and returning the winner is what
   guarantees the physical-sharing contract even under contention. *)
let cached (table : stripe -> (string, 'a) Hashtbl.t) ?store ~key
    (compute : unit -> 'a) : 'a =
  let s = stripe_of key in
  let tbl = table s in
  match Mutex.protect s.lock (fun () -> Hashtbl.find_opt tbl key) with
  | Some v ->
      Atomic.incr s.hits;
      v
  | None ->
      let from_store =
        match store with
        | None -> None
        | Some st -> (
            match Vp_exec.Store.find st ~key with
            | Vp_exec.Store.Hit v -> Some v
            | Vp_exec.Store.Miss | Vp_exec.Store.Evicted -> None)
      in
      let v, was_hit =
        match from_store with
        | Some v -> (v, true)
        | None ->
            let v = compute () in
            (match store with
            | Some st -> Vp_exec.Store.put st ~key v
            | None -> ());
            (v, false)
      in
      if was_hit then Atomic.incr s.hits else Atomic.incr s.misses;
      Mutex.protect s.lock (fun () ->
          if Hashtbl.length tbl >= table_cap then begin
            ignore (Atomic.fetch_and_add s.evictions (Hashtbl.length tbl));
            Hashtbl.reset tbl
          end;
          match Hashtbl.find_opt tbl key with
          | Some winner -> winner
          | None ->
              Hashtbl.add tbl key v;
              v)

let superblock ?store ?(seed = 42) workload cfg params =
  if not (Spec_unit.enabled ()) then
    Vp_region.Superblock.form ~seed workload cfg params
  else begin
    let key = superblock_key ~seed workload cfg params in
    let ((program, _) as result) =
      cached (fun s -> s.sb) ?store ~key (fun () ->
          let traces =
            cached
              (fun s -> s.traces)
              ?store
              ~key:(traces_key workload cfg params)
              (fun () ->
                Vp_region.Superblock.select_traces cfg
                  (Vp_workload.Workload.program workload)
                  params)
          in
          Vp_region.Superblock.form ~seed ~traces workload cfg params)
    in
    register program key;
    result
  end

let hyperblock ?store workload cfg params =
  if not (Spec_unit.enabled ()) then
    Vp_region.Hyperblock.form workload cfg params
  else begin
    let key = hyperblock_key workload cfg params in
    let ((program, _) as result) =
      cached (fun s -> s.hb) ?store ~key (fun () ->
          Vp_region.Hyperblock.form workload cfg params)
    in
    register program key;
    result
  end

let clear () =
  Array.iter
    (fun s ->
      Mutex.protect s.lock (fun () ->
          Hashtbl.reset s.traces;
          Hashtbl.reset s.sb;
          Hashtbl.reset s.hb;
          Atomic.set s.hits 0;
          Atomic.set s.misses 0;
          Atomic.set s.evictions 0))
    stripes;
  Mutex.protect registry_mutex (fun () -> Prog_tbl.reset registry)
