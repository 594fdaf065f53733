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
  groups : int;
  fork_join_estimate_s : float;
}

type t = {
  mutex : Mutex.t;
  live : bool;
  started_at : float;
  mutable queued : int;
  mutable running : int;
  mutable completed : int;
  mutable failed : int;
  mutable deduped : int;
  mutable peak_in_flight : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable corrupt_evicted : int;
  mutable nodes_evicted : int;
  mutable workers : int;
  mutable job_wall_total : float;
  mutable job_wall_max : float;
  group_wall_max : (string, float) Hashtbl.t;
  mutable painted : bool;  (** a live line is currently on screen *)
}

let make ~live =
  {
    mutex = Mutex.create ();
    live;
    started_at = Unix.gettimeofday ();
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
    job_wall_total = 0.0;
    job_wall_max = 0.0;
    group_wall_max = Hashtbl.create 16;
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
  let finished = t.completed + t.failed in
  let b = Buffer.create 96 in
  Buffer.add_string b (Printf.sprintf "jobs %d/%d" finished t.queued);
  if t.running > 0 then
    Buffer.add_string b (Printf.sprintf " (%d running)" t.running);
  if t.failed > 0 then Buffer.add_string b (Printf.sprintf " %d failed" t.failed);
  if t.cache_hits + t.cache_misses > 0 then
    Buffer.add_string b
      (Printf.sprintf " | cache %d hit %d miss" t.cache_hits t.cache_misses);
  if t.corrupt_evicted > 0 then
    Buffer.add_string b (Printf.sprintf " (%d evicted)" t.corrupt_evicted);
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
      f t;
      repaint t)

let add_queued t n = record t (fun t -> t.queued <- t.queued + n)

let job_started t =
  record t (fun t ->
      t.running <- t.running + 1;
      if t.running > t.peak_in_flight then t.peak_in_flight <- t.running)

let job_deduped t = record t (fun t -> t.deduped <- t.deduped + 1)

(* The fork-join estimate: if each group had run as its own barriered
   batch on unboundedly many workers, the suite would cost the sum of
   each group's slowest job. The gap between that and [wall_total] at
   high [--jobs] is the win from removing inter-experiment barriers. *)
let group_wall t ~group ~wall =
  locked t (fun () ->
      match Hashtbl.find_opt t.group_wall_max group with
      | Some w when w >= wall -> ()
      | _ -> Hashtbl.replace t.group_wall_max group wall)

let settle t ~wall =
  t.running <- t.running - 1;
  t.job_wall_total <- t.job_wall_total +. wall;
  if wall > t.job_wall_max then t.job_wall_max <- wall

let job_done t ~wall =
  record t (fun t ->
      settle t ~wall;
      t.completed <- t.completed + 1)

let job_failed t ~wall =
  record t (fun t ->
      settle t ~wall;
      t.failed <- t.failed + 1)

let cache_hit t = record t (fun t -> t.cache_hits <- t.cache_hits + 1)
let cache_miss t = record t (fun t -> t.cache_misses <- t.cache_misses + 1)

let corrupt_evicted t =
  record t (fun t -> t.corrupt_evicted <- t.corrupt_evicted + 1)

let node_evicted t = record t (fun t -> t.nodes_evicted <- t.nodes_evicted + 1)

let set_workers t n = locked t (fun () -> t.workers <- max 1 n)

let finish t =
  locked t (fun () ->
      if t.painted then begin
        Printf.eprintf "\r\027[K%!";
        t.painted <- false
      end)

let snapshot t =
  locked t (fun () ->
      {
        queued = t.queued;
        running = t.running;
        completed = t.completed;
        failed = t.failed;
        deduped = t.deduped;
        peak_in_flight = t.peak_in_flight;
        cache_hits = t.cache_hits;
        cache_misses = t.cache_misses;
        corrupt_evicted = t.corrupt_evicted;
        nodes_evicted = t.nodes_evicted;
        workers = t.workers;
        wall_total = Unix.gettimeofday () -. t.started_at;
        job_wall_total = t.job_wall_total;
        job_wall_max = t.job_wall_max;
        groups = Hashtbl.length t.group_wall_max;
        fork_join_estimate_s =
          Hashtbl.fold (fun _ w acc -> acc +. w) t.group_wall_max 0.0;
      })

let render_line t = locked t (fun () -> unsafe_render_line t)

let json_summary ?(extra = []) t =
  let s = snapshot t in
  let mean_job =
    let n = s.completed + s.failed in
    if n = 0 then 0.0 else s.job_wall_total /. float_of_int n
  in
  let utilization =
    let capacity = float_of_int s.workers *. s.wall_total in
    if capacity <= 0.0 then 0.0
    else Float.min 1.0 (s.job_wall_total /. capacity)
  in
  let extra_fields =
    String.concat ""
      (List.map (fun (name, json) -> Printf.sprintf ", \"%s\": %s" name json)
         extra)
  in
  Printf.sprintf
    "{\"jobs\": {\"queued\": %d, \"done\": %d, \"failed\": %d}, \
     \"cache\": {\"hits\": %d, \"misses\": %d, \"corrupt_evicted\": %d}, \
     \"wall_s\": {\"total\": %.3f, \"mean_job\": %.3f, \"max_job\": %.3f}, \
     \"workers\": {\"count\": %d, \"utilization\": %.3f}, \
     \"graph\": {\"deduped\": %d, \
     \"peak_in_flight\": %d, \"nodes_evicted\": %d, \"groups\": %d, \
     \"fork_join_estimate_s\": %.3f}%s}"
    s.queued s.completed s.failed s.cache_hits s.cache_misses
    s.corrupt_evicted s.wall_total mean_job s.job_wall_max s.workers
    utilization s.deduped s.peak_in_flight s.nodes_evicted s.groups
    s.fork_join_estimate_s extra_fields
