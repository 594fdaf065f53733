(* The suite job graph, and the one executor. All structural state —
   nodes, edges, readiness, the priority heap — lives behind one graph
   mutex; payloads execute outside it, in [execute_node], which also does
   the store lookup of a cacheable node and the job accounting. Results
   are stored as [Obj.t]: the key is the node's only identity under
   in-flight dedup, so the phantom type on ['a node] is the caller's
   contract, as with the store's [Marshal] payloads. *)

exception Cycle of string list

let () =
  Printexc.register_printer (function
    | Cycle path ->
        Some
          (Printf.sprintf "dependency cycle: %s" (String.concat " -> " path))
    | _ -> None)

type status =
  | Pending  (** has unfinished dependencies *)
  | Ready  (** in the heap, waiting for a worker *)
  | Running
  | Finished of (Obj.t, string) result

type nd = {
  id : int;  (** declaration sequence number — the deterministic tiebreak *)
  key : string;
  label : string;
  group : string option;
  cache : bool;
  payload : unit -> Obj.t;
  mutable status : status;
  mutable deps : nd list;
  mutable dependents : nd list;
  mutable unmet : int;  (** unfinished dependencies *)
  mutable crit : int;  (** critical-path priority: 1 + longest dependent chain *)
  mutable waiters : ((Obj.t, string) result -> unit) list;
      (** completion subscriptions; fired once, outside the graph mutex *)
  mutable stamp : int;
      (** LRU recency: the graph tick of the last declaration (dedup hit),
          lookup or completion that touched this node *)
}

type 'a node = nd
type packed = nd

let pack n = n
let key n = n.key

(* Heap entries snapshot (crit, id) at push time. A node whose priority
   rises while Ready is pushed again; the stale lower-priority entry pops
   later and is skipped because the node is no longer Ready. *)
type entry = { e_crit : int; e_id : int; e_nd : nd }

module Heap = struct
  type t = { mutable a : entry array; mutable n : int }

  let create () = { a = [||]; n = 0 }

  (* max-heap: higher crit first, then earlier declaration *)
  let above x y = x.e_crit > y.e_crit || (x.e_crit = y.e_crit && x.e_id < y.e_id)

  let push h e =
    if h.n = Array.length h.a then begin
      let a' = Array.make (max 16 (2 * h.n)) e in
      Array.blit h.a 0 a' 0 h.n;
      h.a <- a'
    end;
    h.a.(h.n) <- e;
    h.n <- h.n + 1;
    let i = ref (h.n - 1) in
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      above h.a.(!i) h.a.(p)
    do
      let p = (!i - 1) / 2 in
      let tmp = h.a.(p) in
      h.a.(p) <- h.a.(!i);
      h.a.(!i) <- tmp;
      i := p
    done

  let pop h =
    if h.n = 0 then None
    else begin
      let top = h.a.(0) in
      h.n <- h.n - 1;
      h.a.(0) <- h.a.(h.n);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let best = ref !i in
        if l < h.n && above h.a.(l) h.a.(!best) then best := l;
        if r < h.n && above h.a.(r) h.a.(!best) then best := r;
        if !best = !i then continue := false
        else begin
          let tmp = h.a.(!best) in
          h.a.(!best) <- h.a.(!i);
          h.a.(!i) <- tmp;
          i := !best
        end
      done;
      Some top
    end
end

type t = {
  ctx : Context.t;
  mutex : Mutex.t;
  cond : Condition.t;
  by_key : (string, nd) Hashtbl.t;
  heap : Heap.t;
  mutable next_id : int;
  mutable pending : int;  (** nodes not yet [Finished] *)
  mutable running_count : int;
  mutable stalled : bool;  (** defensive: drain found no runnable work *)
  mutable fired : (unit -> unit) list;
      (** waiter invocations queued under the mutex, run after release *)
  mutable resident : unit Domain.t array option;
      (** worker domains of {!start_workers}, while running *)
  mutable stop : bool;  (** resident workers: exit once nothing is runnable *)
  mutable node_cap : int option;
      (** LRU bound on retained nodes; [None] keeps every node forever *)
  mutable tick : int;  (** monotonic recency clock for [nd.stamp] *)
}

let create ctx =
  {
    ctx;
    mutex = Mutex.create ();
    cond = Condition.create ();
    by_key = Hashtbl.create 64;
    heap = Heap.create ();
    next_id = 0;
    pending = 0;
    running_count = 0;
    stalled = false;
    fired = [];
    resident = None;
    stop = false;
    node_cap = None;
    tick = 0;
  }

let context t = t.ctx
let size t = t.next_id
let retained t = Mutex.protect t.mutex (fun () -> Hashtbl.length t.by_key)
let set_node_cap t cap = Mutex.protect t.mutex (fun () -> t.node_cap <- cap)

let touch t n =
  t.tick <- t.tick + 1;
  n.stamp <- t.tick

(* --- node-cache LRU; graph mutex held --- *)

(* Eviction drops the graph's references to a cold, successfully finished
   node: its [by_key] entry plus the edge lists tying it to neighbours.
   Dependents read leaf values through direct [nd] refs captured in their
   payload closures, never through [by_key], so unlinking is purely a
   memory/identity decision — the record stays alive exactly as long as
   some closure still needs it. A later declaration of the same key
   recomputes; store-cached leaves answer from the warm on-disk store, so
   eviction trades a cheap re-render for bounded resident memory. Only
   [Finished (Ok _)] nodes with no waiters are candidates: failed nodes
   keep their sticky diagnostic for [await], unfinished nodes are live
   work. Removing a finished node's edges cannot hide a dependency cycle:
   a finished node's dep edges are frozen, and every path through it
   reaches only other finished nodes — never a node that could still gain
   an edge. *)
let evictable n =
  match n.status with
  | Finished (Ok _) -> n.waiters = []
  | Pending | Ready | Running | Finished (Error _) -> false

let unlink_evicted n =
  List.iter
    (fun d -> d.dependents <- List.filter (fun x -> not (x == n)) d.dependents)
    n.deps;
  List.iter
    (fun d -> d.deps <- List.filter (fun x -> not (x == n)) d.deps)
    n.dependents;
  n.deps <- [];
  n.dependents <- []

(* Triggered past the cap, evict down to 90% of it (batching amortizes the
   O(n log n) candidate sort), oldest stamps first. *)
let maybe_evict t =
  match t.node_cap with
  | None -> ()
  | Some cap when Hashtbl.length t.by_key <= cap -> ()
  | Some cap ->
      let candidates =
        Hashtbl.fold
          (fun _ n acc -> if evictable n then n :: acc else acc)
          t.by_key []
      in
      let target = max 1 (cap * 9 / 10) in
      let excess = Hashtbl.length t.by_key - target in
      if excess > 0 && candidates <> [] then begin
        let arr = Array.of_list candidates in
        Array.sort (fun a b -> compare a.stamp b.stamp) arr;
        let k = min excess (Array.length arr) in
        for i = 0 to k - 1 do
          let n = arr.(i) in
          Hashtbl.remove t.by_key n.key;
          unlink_evicted n;
          Progress.node_evicted t.ctx.Context.progress
        done
      end

(* --- structural helpers; graph mutex held --- *)

let rec dep_path src target =
  if src == target then Some [ src.key ]
  else
    List.fold_left
      (fun acc d ->
        match acc with
        | Some _ -> acc
        | None -> (
            match dep_path d target with
            | Some path -> Some (src.key :: path)
            | None -> None))
      None src.deps

let make_ready t n =
  n.status <- Ready;
  Heap.push t.heap { e_crit = n.crit; e_id = n.id; e_nd = n };
  Condition.broadcast t.cond

let rec bump_crit t n c =
  if n.crit < c then begin
    n.crit <- c;
    (match n.status with
    | Ready -> Heap.push t.heap { e_crit = n.crit; e_id = n.id; e_nd = n }
    | Pending | Running | Finished _ -> ());
    List.iter (fun d -> bump_crit t d (c + 1)) n.deps
  end

(* Completion subscriptions fire outside the mutex: finishing a node (in
   any way — success, failure, poisoning) moves its waiters onto [t.fired]
   as ready-to-run thunks, and every path that released the mutex flushes
   the queue. Any thread may flush; each thunk runs exactly once. *)
let enqueue_waiters t n result =
  match n.waiters with
  | [] -> ()
  | ws ->
      n.waiters <- [];
      t.fired <-
        List.rev_append (List.rev_map (fun w () -> w result) ws) t.fired

let flush_fired t =
  match Mutex.protect t.mutex (fun () ->
      match t.fired with
      | [] -> []
      | fs ->
          t.fired <- [];
          fs)
  with
  | [] -> ()
  | fs -> List.iter (fun f -> f ()) (List.rev fs)

let rec poison t n ~root ~msg =
  match n.status with
  | Pending | Ready ->
      let msg' = Printf.sprintf "poisoned: dependency %s failed: %s" root msg in
      n.status <- Finished (Error msg');
      enqueue_waiters t n (Error msg');
      Condition.broadcast t.cond;
      t.pending <- t.pending - 1;
      (* account the node as a failed job: it was queued and will never
         run, so started/failed keeps the progress ledger balanced *)
      Progress.job_started t.ctx.Context.progress;
      Progress.job_failed t.ctx.Context.progress ~wall:0.0;
      List.iter (fun d -> poison t d ~root ~msg) n.dependents
  | Running | Finished _ -> ()

let link t n ~on:d =
  match n.status with
  | Running | Finished _ -> ()  (* ordering already satisfied *)
  | Pending | Ready ->
      if d == n then raise (Cycle [ n.key ]);
      if not (List.memq d n.deps) then begin
        (match dep_path d n with
        | Some path -> raise (Cycle (n.key :: path))
        | None -> ());
        n.deps <- d :: n.deps;
        bump_crit t d (n.crit + 1);
        match d.status with
        | Finished (Ok _) -> ()
        | Finished (Error msg) -> poison t n ~root:d.key ~msg
        | Pending | Ready | Running ->
            d.dependents <- n :: d.dependents;
            n.unmet <- n.unmet + 1;
            (* a Ready node that gains a live dependency is un-readied;
               its stale heap entry is skipped on pop *)
            if n.status = Ready then n.status <- Pending
      end

let fail_node t n msg =
  n.status <- Finished (Error msg);
  enqueue_waiters t n (Error msg);
  Condition.broadcast t.cond;
  t.pending <- t.pending - 1;
  List.iter (fun d -> poison t d ~root:n.key ~msg) n.dependents

let settle t n (outcome : (Obj.t, string) result) =
  match outcome with
  | Ok v ->
      n.status <- Finished (Ok v);
      touch t n;
      enqueue_waiters t n (Ok v);
      t.pending <- t.pending - 1;
      List.iter
        (fun d ->
          match d.status with
          | Pending ->
              d.unmet <- d.unmet - 1;
              if d.unmet = 0 then make_ready t d
          | Ready | Running | Finished _ -> ())
        n.dependents;
      maybe_evict t
  | Error msg -> fail_node t n msg

let rec pop_ready t =
  match Heap.pop t.heap with
  | None -> None
  | Some e -> (
      match e.e_nd.status with
      | Ready ->
          e.e_nd.status <- Running;
          t.running_count <- t.running_count + 1;
          Some e.e_nd
      | Pending | Running | Finished _ -> pop_ready t)

(* --- declaration --- *)

let node t ?label ?group ?(cache = true) ~key ?(deps = []) payload =
  let n =
    Mutex.protect t.mutex (fun () ->
        match Hashtbl.find_opt t.by_key key with
        | Some existing ->
            Progress.job_deduped t.ctx.Context.progress;
            touch t existing;
            List.iter (fun d -> link t existing ~on:d) deps;
            existing
        | None ->
            let label =
              match label with
              | Some l -> l
              | None ->
                  if String.length key <= 24 then key else String.sub key 0 24
            in
            let n =
              {
                id = t.next_id;
                key;
                label;
                group;
                cache;
                payload = (fun () -> Obj.repr (payload ()));
                status = Pending;
                deps = [];
                dependents = [];
                unmet = 0;
                crit = 1;
                waiters = [];
                stamp = 0;
              }
            in
            t.next_id <- t.next_id + 1;
            t.pending <- t.pending + 1;
            Hashtbl.add t.by_key key n;
            touch t n;
            Progress.add_queued t.ctx.Context.progress 1;
            List.iter (fun d -> link t n ~on:d) deps;
            if n.unmet = 0 then make_ready t n;
            maybe_evict t;
            n)
  in
  (* linking onto an already-failed dependency poisons dependents, which
     may have subscriptions to fire *)
  flush_fired t;
  n

(* The dedup branch of [node] without a declaration: no payload, no
   dependencies to link, so nothing can fire. *)
let find t ~key =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.by_key key with
      | Some existing ->
          Progress.job_deduped t.ctx.Context.progress;
          touch t existing;
          Some existing
      | None -> None)

let add_dep t n ~on =
  Mutex.protect t.mutex (fun () ->
      match n.status with
      | Running | Finished _ ->
          invalid_arg "Graph.add_dep: node already running or finished"
      | Pending | Ready -> link t n ~on);
  flush_fired t

let on_complete t (n : 'a node) (f : ('a, string) result -> unit) =
  let immediate =
    Mutex.protect t.mutex (fun () ->
        match n.status with
        | Finished (Ok v) -> Some (Ok (Obj.obj v : 'a))
        | Finished (Error msg) -> Some (Error msg)
        | Pending | Ready | Running ->
            n.waiters <-
              (fun (r : (Obj.t, string) result) ->
                f (match r with Ok v -> Ok (Obj.obj v) | Error e -> Error e))
              :: n.waiters;
            None)
  in
  match immediate with None -> () | Some r -> f r

let value (n : 'a node) : 'a =
  match n.status with
  | Finished (Ok v) -> Obj.obj v
  | Finished (Error msg) ->
      invalid_arg
        (Printf.sprintf "Graph.value: node %s failed: %s" n.label msg)
  | Pending | Ready | Running ->
      invalid_arg
        (Printf.sprintf "Graph.value: node %s has not finished" n.label)

(* --- execution --- *)

(* A cacheable node's payload behind the store: a hit skips the payload,
   a miss runs it and writes the result. The lookup runs in the worker, so
   store I/O parallelizes along with the computation. *)
let cached_payload t n =
  match t.ctx.Context.store with
  | Some store when n.cache -> (
      let progress = t.ctx.Context.progress in
      let compute () =
        Progress.cache_miss progress;
        let v = n.payload () in
        Store.put store ~key:n.key v;
        v
      in
      match (Store.find store ~key:n.key : Obj.t Store.lookup) with
      | Store.Hit v ->
          Progress.cache_hit progress;
          v
      | Store.Evicted ->
          Progress.corrupt_evicted progress;
          compute ()
      | Store.Miss -> compute ())
  | Some _ | None -> n.payload ()

(* Run one node in the calling domain: its payload (through the store),
   the job and group accounting, and an exception turned into the node's
   failure. *)
let execute_node t n =
  let progress = t.ctx.Context.progress in
  Progress.job_started progress;
  let t0 = Unix.gettimeofday () in
  let outcome =
    match cached_payload t n with
    | v -> Ok v
    | exception exn -> Error (Printexc.to_string exn)
  in
  let wall = Unix.gettimeofday () -. t0 in
  (match outcome with
  | Ok _ -> Progress.job_done progress ~wall
  | Error _ -> Progress.job_failed progress ~wall);
  Option.iter (fun group -> Progress.group_wall progress ~group ~wall) n.group;
  outcome

let stall_keys t =
  List.sort compare
    (Hashtbl.fold
       (fun _ n acc ->
         match n.status with Finished _ -> acc | _ -> n.key :: acc)
       t.by_key [])

let drain_sequential t =
  Progress.set_workers t.ctx.Context.progress 1;
  let rec loop () =
    match Mutex.protect t.mutex (fun () -> pop_ready t) with
    | Some n ->
        let outcome = execute_node t n in
        Mutex.protect t.mutex (fun () ->
            t.running_count <- t.running_count - 1;
            settle t n outcome);
        flush_fired t;
        loop ()
    | None -> ()
  in
  loop ()

let drain_parallel t =
  let worker () =
    let rec loop () =
      let action =
        Mutex.protect t.mutex (fun () ->
            let rec get () =
              if t.pending = 0 || t.stalled then `Stop
              else
                match pop_ready t with
                | Some n -> `Run n
                | None ->
                    if t.running_count = 0 then begin
                      (* nothing ready, nothing running, work pending:
                         the drain can make no further progress *)
                      t.stalled <- true;
                      Condition.broadcast t.cond;
                      `Stop
                    end
                    else begin
                      Condition.wait t.cond t.mutex;
                      get ()
                    end
            in
            get ())
      in
      match action with
      | `Stop -> ()
      | `Run n ->
          let outcome = execute_node t n in
          Mutex.protect t.mutex (fun () ->
              t.running_count <- t.running_count - 1;
              settle t n outcome;
              Condition.broadcast t.cond);
          flush_fired t;
          loop ()
    in
    loop ()
  in
  let workers =
    Mutex.protect t.mutex (fun () ->
        max 1 (min t.ctx.Context.jobs t.pending))
  in
  Progress.set_workers t.ctx.Context.progress workers;
  let domains = Array.init workers (fun _ -> Domain.spawn worker) in
  Array.iter Domain.join domains

let drain t =
  if t.resident <> None then
    invalid_arg "Graph.drain: resident workers are running (await instead)";
  if Mutex.protect t.mutex (fun () -> t.pending > 0) then begin
    if t.ctx.Context.jobs <= 1 then drain_sequential t else drain_parallel t;
    Progress.finish t.ctx.Context.progress;
    if Mutex.protect t.mutex (fun () -> t.pending > 0) then
      raise (Cycle (stall_keys t))
  end

(* --- resident workers (the daemon's drain) --- *)

(* Like one [drain_parallel] worker, but it does not exit when the heap
   runs dry: it waits for new declarations, until [stop_workers] sets the
   stop flag — and even then finishes everything already runnable, so a
   graceful shutdown drains in-flight and queued work. Declaration-time
   cycle rejection means pending-but-unreachable work cannot exist, so
   there is no stall detection here. *)
let resident_worker t () =
  let rec loop () =
    let action =
      Mutex.protect t.mutex (fun () ->
          let rec get () =
            match pop_ready t with
            | Some n -> `Run n
            | None ->
                if t.stop && t.running_count = 0 then `Stop
                else begin
                  Condition.wait t.cond t.mutex;
                  get ()
                end
          in
          get ())
    in
    match action with
    | `Stop -> ()
    | `Run n ->
        let outcome = execute_node t n in
        Mutex.protect t.mutex (fun () ->
            t.running_count <- t.running_count - 1;
            settle t n outcome;
            Condition.broadcast t.cond);
        flush_fired t;
        loop ()
  in
  loop ()

let start_workers t =
  match t.resident with
  | Some _ -> invalid_arg "Graph.start_workers: workers already running"
  | None ->
      let jobs = max 1 t.ctx.Context.jobs in
      t.stop <- false;
      Progress.set_workers t.ctx.Context.progress jobs;
      t.resident <-
        Some (Array.init jobs (fun _ -> Domain.spawn (resident_worker t)))

let stop_workers t =
  match t.resident with
  | None -> ()
  | Some domains ->
      Mutex.protect t.mutex (fun () ->
          t.stop <- true;
          Condition.broadcast t.cond);
      Array.iter Domain.join domains;
      t.resident <- None;
      Progress.finish t.ctx.Context.progress;
      flush_fired t

let await t (n : 'a node) : 'a =
  (match n.status with
  | Finished _ -> ()
  | Pending | Ready | Running ->
      if t.resident <> None then
        (* resident workers own the execution; just wait for the node *)
        Mutex.protect t.mutex (fun () ->
            let unfinished () =
              match n.status with
              | Finished _ -> false
              | Pending | Ready | Running -> true
            in
            while unfinished () do
              Condition.wait t.cond t.mutex
            done)
      else drain t);
  match n.status with
  | Finished (Ok v) -> Obj.obj v
  | Finished (Error message) ->
      raise (Context.Job_failed { key = n.key; label = n.label; message })
  | Pending | Ready | Running ->
      (* drain either finishes every node or raises *)
      assert false
