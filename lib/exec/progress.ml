type snapshot = {
  queued : int;
  running : int;
  completed : int;
  failed : int;
  deduped : int;
  peak_in_flight : int;
  cache_hits : int;
  cache_misses : int;
  corrupt_evicted : int;
  nodes_evicted : int;
  workers : int;
  wall_total : float;
  job_wall_total : float;
  job_wall_max : float;
}

(* The counts are one immutable record, replaced under the mutex on each
   event; [wall_total] is stamped when a snapshot is read. *)
type t = {
  mutex : Mutex.t;
  live : bool;
  started_at : float;
  mutable counts : snapshot;
  mutable painted : bool;  (** a live line is currently on screen *)
}

let make ~live =
  {
    mutex = Mutex.create ();
    live;
    started_at = Unix.gettimeofday ();
    counts =
      {
        queued = 0;
        running = 0;
        completed = 0;
        failed = 0;
        deduped = 0;
        peak_in_flight = 0;
        cache_hits = 0;
        cache_misses = 0;
        corrupt_evicted = 0;
        nodes_evicted = 0;
        workers = 1;
        wall_total = 0.0;
        job_wall_total = 0.0;
        job_wall_max = 0.0;
      };
    painted = false;
  }

let create ?live () =
  let live =
    match live with Some l -> l | None -> Unix.isatty Unix.stderr
  in
  make ~live

let silent () = make ~live:false

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) (fun () -> f ())

let unsafe_render_line t =
  let s = t.counts in
  let finished = s.completed + s.failed in
  let b = Buffer.create 96 in
  Buffer.add_string b (Printf.sprintf "jobs %d/%d" finished s.queued);
  if s.running > 0 then
    Buffer.add_string b (Printf.sprintf " (%d running)" s.running);
  if s.failed > 0 then Buffer.add_string b (Printf.sprintf " %d failed" s.failed);
  if s.cache_hits + s.cache_misses > 0 then
    Buffer.add_string b
      (Printf.sprintf " | cache %d hit %d miss" s.cache_hits s.cache_misses);
  if s.corrupt_evicted > 0 then
    Buffer.add_string b (Printf.sprintf " (%d evicted)" s.corrupt_evicted);
  Buffer.add_string b
    (Printf.sprintf " | %.1fs" (Unix.gettimeofday () -. t.started_at));
  Buffer.contents b

let repaint t =
  if t.live then begin
    Printf.eprintf "\r\027[K%s%!" (unsafe_render_line t);
    t.painted <- true
  end

let record t f =
  locked t (fun () ->
      t.counts <- f t.counts;
      repaint t)

let add_queued t n = record t (fun s -> { s with queued = s.queued + n })

let job_started t =
  record t (fun s ->
      let running = s.running + 1 in
      { s with running; peak_in_flight = max running s.peak_in_flight })

let job_deduped t = record t (fun s -> { s with deduped = s.deduped + 1 })

let settle s ~wall =
  {
    s with
    running = s.running - 1;
    job_wall_total = s.job_wall_total +. wall;
    job_wall_max = Float.max wall s.job_wall_max;
  }

let job_done t ~wall =
  record t (fun s ->
      let s = settle s ~wall in
      { s with completed = s.completed + 1 })

let job_failed t ~wall =
  record t (fun s ->
      let s = settle s ~wall in
      { s with failed = s.failed + 1 })

let cache_hit t = record t (fun s -> { s with cache_hits = s.cache_hits + 1 })

let cache_miss t =
  record t (fun s -> { s with cache_misses = s.cache_misses + 1 })

let corrupt_evicted t =
  record t (fun s -> { s with corrupt_evicted = s.corrupt_evicted + 1 })

let node_evicted t =
  record t (fun s -> { s with nodes_evicted = s.nodes_evicted + 1 })

let set_workers t n =
  locked t (fun () -> t.counts <- { t.counts with workers = max 1 n })

let finish t =
  locked t (fun () ->
      if t.painted then begin
        Printf.eprintf "\r\027[K%!";
        t.painted <- false
      end)

let snapshot t =
  locked t (fun () ->
      { t.counts with wall_total = Unix.gettimeofday () -. t.started_at })

let sections t =
  let module J = Vp_util.Jsonx in
  let s = snapshot t in
  let ints fields = J.Obj (List.map (fun (k, n) -> (k, J.Int n)) fields) in
  let ms x = J.Float (Float.round (x *. 1000.0) /. 1000.0) in
  let mean_job =
    let n = s.completed + s.failed in
    if n = 0 then 0.0 else s.job_wall_total /. float_of_int n
  in
  let utilization =
    let capacity = float_of_int s.workers *. s.wall_total in
    if capacity <= 0.0 then 0.0
    else Float.min 1.0 (s.job_wall_total /. capacity)
  in
  [
    ( "jobs",
      ints
        [ ("queued", s.queued); ("done", s.completed); ("failed", s.failed) ]
    );
    ( "cache",
      ints
        [
          ("hits", s.cache_hits);
          ("misses", s.cache_misses);
          ("corrupt_evicted", s.corrupt_evicted);
        ] );
    ( "wall_s",
      J.Obj
        [
          ("total", ms s.wall_total);
          ("mean_job", ms mean_job);
          ("max_job", ms s.job_wall_max);
        ] );
    ( "workers",
      J.Obj [ ("count", J.Int s.workers); ("utilization", ms utilization) ] );
    ( "graph",
      ints
        [
          ("deduped", s.deduped);
          ("peak_in_flight", s.peak_in_flight);
          ("nodes_evicted", s.nodes_evicted);
        ] );
  ]
