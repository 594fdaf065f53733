(* The suite job graph, and the one executor. All structural state —
   nodes, edges, readiness, the ready queue — lives behind one graph
   mutex; payloads execute outside it, in [execute_node], which also does
   the store lookup of a cacheable node and the job accounting. Results
   are stored as [Obj.t]: the key is the node's only identity under
   in-flight dedup, so the phantom type on ['a node] is the caller's
   contract, as with the store's [Marshal] payloads.

   Edges are made only when a node is declared, from it to nodes already
   on the graph, so the graph is acyclic by construction. *)

type status =
  | Pending  (** has unfinished dependencies *)
  | Ready  (** in the ready queue, waiting for a worker *)
  | Running
  | Finished of (Obj.t, string) result

type nd = {
  key : string;
  label : string;
  cache : bool;
  payload : unit -> Obj.t;
  mutable status : status;
  mutable dependents : nd list;  (** emptied when the node finishes *)
  mutable unmet : int;  (** unfinished dependencies *)
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

type t = {
  ctx : Context.t;
  mutex : Mutex.t;
  cond : Condition.t;
  by_key : (string, nd) Hashtbl.t;
  ready : nd Queue.t;
  mutable declared : int;
  mutable pending : int;  (** nodes not yet [Finished] *)
  mutable running_count : int;
  mutable fired : (unit -> unit) list;
      (** waiter invocations queued under the mutex, run after release *)
  mutable resident : unit Domain.t array option;
      (** worker domains of {!start_workers}, while running *)
  mutable stop : bool;
      (** set by [drain] and [stop_workers]: workers exit once nothing is
          ready or running *)
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
    ready = Queue.create ();
    declared = 0;
    pending = 0;
    running_count = 0;
    fired = [];
    resident = None;
    stop = false;
    node_cap = None;
    tick = 0;
  }

let size t = t.declared
let retained t = Mutex.protect t.mutex (fun () -> Hashtbl.length t.by_key)
let set_node_cap t cap = Mutex.protect t.mutex (fun () -> t.node_cap <- cap)

let touch t n =
  t.tick <- t.tick + 1;
  n.stamp <- t.tick

(* --- node-cache LRU; graph mutex held --- *)

(* Eviction drops the graph's reference to a cold, successfully finished
   node: its [by_key] entry. A finished node holds no edges, and
   dependents read leaf values through direct [nd] refs captured in their
   payload closures, never through [by_key], so the record stays alive
   exactly as long as some closure still needs it. A later declaration of
   the same key recomputes; store-cached leaves answer from the warm
   on-disk store, so eviction trades a cheap re-render for bounded
   resident memory. Only [Finished (Ok _)] nodes with no waiters are
   candidates: failed nodes keep their sticky diagnostic for [await],
   unfinished nodes are live work. *)
let evictable n =
  match n.status with
  | Finished (Ok _) -> n.waiters = []
  | Pending | Ready | Running | Finished (Error _) -> false

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
          Hashtbl.remove t.by_key arr.(i).key;
          Progress.node_evicted t.ctx.Context.progress
        done
      end

(* --- structural helpers; graph mutex held --- *)

let make_ready t n =
  n.status <- Ready;
  Queue.push n t.ready;
  Condition.broadcast t.cond

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

(* Finish [n] with [result] and hand back its dependents, which nothing
   reads after this: a finished node keeps no edges. *)
let finish t n result =
  n.status <- Finished result;
  enqueue_waiters t n result;
  t.pending <- t.pending - 1;
  let dependents = n.dependents in
  n.dependents <- [];
  dependents

(* A dependent of an unfinished node is [Pending] until its last
   dependency finishes, so only [Pending] nodes are poisoned. *)
let rec poison t n ~root ~msg =
  match n.status with
  | Pending ->
      let msg' = Printf.sprintf "poisoned: dependency %s failed: %s" root msg in
      (* account the node as a failed job: it was queued and will never
         run, so started/failed keeps the progress ledger balanced *)
      Progress.job_started t.ctx.Context.progress;
      Progress.job_failed t.ctx.Context.progress ~wall:0.0;
      List.iter
        (fun d -> poison t d ~root ~msg)
        (finish t n (Error msg'))
  | Ready | Running | Finished _ -> ()

(* Order [d] before the node [n] being declared: count it as unmet while
   it is unfinished (once, however often [deps] lists it), or poison [n]
   when it has failed. *)
let link t n d =
  match d.status with
  | Finished (Ok _) -> ()
  | Finished (Error msg) -> poison t n ~root:d.key ~msg
  | Pending | Ready | Running ->
      if n.status = Pending && not (List.memq n d.dependents) then begin
        d.dependents <- n :: d.dependents;
        n.unmet <- n.unmet + 1
      end

let settle t n (outcome : (Obj.t, string) result) =
  match outcome with
  | Ok v ->
      touch t n;
      List.iter
        (fun d ->
          match d.status with
          | Pending ->
              d.unmet <- d.unmet - 1;
              if d.unmet = 0 then make_ready t d
          | Ready | Running | Finished _ -> ())
        (finish t n (Ok v));
      maybe_evict t
  | Error msg ->
      List.iter (fun d -> poison t d ~root:n.key ~msg) (finish t n (Error msg))

(* --- declaration --- *)

(* A declaration of a key already on the graph, and a lookup that finds
   one: one dedup and an LRU touch; graph mutex held. *)
let deduped t n =
  Progress.job_deduped t.ctx.Context.progress;
  touch t n;
  n

let node t ?label ?(cache = true) ~key ?(deps = []) payload =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.by_key key with
      | Some existing -> deduped t existing
      | None ->
          let label =
            match label with
            | Some l -> l
            | None ->
                if String.length key <= 24 then key else String.sub key 0 24
          in
          let n =
            {
              key;
              label;
              cache;
              payload = (fun () -> Obj.repr (payload ()));
              status = Pending;
              dependents = [];
              unmet = 0;
              waiters = [];
              stamp = 0;
            }
          in
          t.declared <- t.declared + 1;
          t.pending <- t.pending + 1;
          Hashtbl.add t.by_key key n;
          touch t n;
          Progress.add_queued t.ctx.Context.progress 1;
          List.iter (link t n) deps;
          (* a dependency that had already failed poisoned [n] *)
          if n.unmet = 0 && n.status = Pending then make_ready t n;
          maybe_evict t;
          n)

let find t ~key =
  Mutex.protect t.mutex (fun () ->
      Option.map (deduped t) (Hashtbl.find_opt t.by_key key))

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
   the job accounting, and an exception turned into the node's failure. *)
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
  outcome

(* The one worker loop. It runs ready nodes first come, first served, and
   with nothing ready it waits for a declaration or a completion. Once the
   stop flag is set it exits as soon as nothing is ready and nothing is
   running: a drain has then run every node (the graph is acyclic, so an
   unfinished node always has a dependency that can run), and resident
   workers everything queued before [stop_workers]. *)
let worker t () =
  let rec loop () =
    let action =
      Mutex.protect t.mutex (fun () ->
          let rec get () =
            match Queue.take_opt t.ready with
            | Some n ->
                n.status <- Running;
                t.running_count <- t.running_count + 1;
                `Run n
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

let drain t =
  if t.resident <> None then
    invalid_arg "Graph.drain: resident workers are running (await instead)";
  let pending =
    Mutex.protect t.mutex (fun () ->
        t.stop <- true;
        t.pending)
  in
  if pending > 0 then begin
    let workers = max 1 (min t.ctx.Context.jobs pending) in
    Progress.set_workers t.ctx.Context.progress workers;
    if workers = 1 then worker t ()
    else
      Array.iter Domain.join
        (Array.init workers (fun _ -> Domain.spawn (worker t)));
    Progress.finish t.ctx.Context.progress
  end

(* --- resident workers (the daemon's drain) --- *)

let start_workers t =
  match t.resident with
  | Some _ -> invalid_arg "Graph.start_workers: workers already running"
  | None ->
      let jobs = max 1 t.ctx.Context.jobs in
      t.stop <- false;
      Progress.set_workers t.ctx.Context.progress jobs;
      t.resident <- Some (Array.init jobs (fun _ -> Domain.spawn (worker t)))

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
      (* a drain finishes every node of the acyclic graph *)
      assert false
