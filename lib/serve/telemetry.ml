(* Server-side telemetry: request counters, per-client counters and
   request-latency percentiles. Single-threaded by construction — every
   recording call happens on the serve loop thread — so no locking. *)

type client = {
  cid : int;
  peer : string;
  mutable submitted : int;
  mutable completed : int;
  mutable rejected : int;
  mutable active : int;  (* admitted requests not yet done *)
}

type t = {
  t0 : float;
  mutable received : int;  (* parsed request frames, any op *)
  mutable accepted : int;
  mutable completed : int;
  mutable failed : int;  (* job_failed errors streamed back *)
  mutable timed_out : int;
  mutable rejected : (string * int) list;  (* per error code *)
  mutable connections : int;  (* lifetime *)
  clients : (int, client) Hashtbl.t;  (* currently connected *)
  (* all completed-request latencies, seconds; capped reservoir *)
  mutable latencies : float array;
  mutable n_lat : int;
}

let reservoir_cap = 65536

let create () =
  {
    t0 = Unix.gettimeofday ();
    received = 0;
    accepted = 0;
    completed = 0;
    failed = 0;
    timed_out = 0;
    rejected = [];
    connections = 0;
    clients = Hashtbl.create 16;
    latencies = Array.make 256 0.0;
    n_lat = 0;
  }

let client_connected t ~cid ~peer =
  t.connections <- t.connections + 1;
  Hashtbl.replace t.clients cid
    { cid; peer; submitted = 0; completed = 0; rejected = 0; active = 0 }

let client_disconnected t ~cid = Hashtbl.remove t.clients cid

let client t cid = Hashtbl.find_opt t.clients cid

let received t = t.received <- t.received + 1

let accepted t ~cid =
  t.accepted <- t.accepted + 1;
  match client t cid with
  | Some c ->
      c.submitted <- c.submitted + 1;
      c.active <- c.active + 1
  | None -> ()

let record_latency t wall =
  if t.n_lat = Array.length t.latencies && t.n_lat < reservoir_cap then begin
    let bigger = Array.make (min reservoir_cap (2 * t.n_lat)) 0.0 in
    Array.blit t.latencies 0 bigger 0 t.n_lat;
    t.latencies <- bigger
  end;
  if t.n_lat < Array.length t.latencies then begin
    t.latencies.(t.n_lat) <- wall;
    t.n_lat <- t.n_lat + 1
  end

let finish_one t ~cid =
  match client t cid with
  | Some c -> c.active <- max 0 (c.active - 1)
  | None -> ()

let completed t ~cid ~wall =
  t.completed <- t.completed + 1;
  record_latency t wall;
  finish_one t ~cid;
  match client t cid with
  | Some c -> c.completed <- c.completed + 1
  | None -> ()

let failed t ~cid =
  t.failed <- t.failed + 1;
  finish_one t ~cid

let timed_out t ~cid =
  t.timed_out <- t.timed_out + 1;
  finish_one t ~cid

let rejected t ~cid ~code =
  (t.rejected <-
     (match List.assoc_opt code t.rejected with
     | Some n -> (code, n + 1) :: List.remove_assoc code t.rejected
     | None -> (code, 1) :: t.rejected));
  match client t cid with
  | Some c -> c.rejected <- c.rejected + 1
  | None -> ()

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let idx = int_of_float (Float.round (p *. float_of_int (n - 1))) in
    sorted.(max 0 (min (n - 1) idx))

let latency_json t =
  let sorted = Array.sub t.latencies 0 t.n_lat in
  Array.sort compare sorted;
  let ms p = Jsonx.Float (1000.0 *. percentile sorted p) in
  Jsonx.Obj
    [
      ("count", Jsonx.Int t.n_lat);
      ("p50_ms", ms 0.50);
      ("p95_ms", ms 0.95);
      ("p99_ms", ms 0.99);
      ( "max_ms",
        Jsonx.Float
          (if t.n_lat = 0 then 0.0 else 1000.0 *. sorted.(t.n_lat - 1)) );
    ]

(* The serve loop's sections: uptime, request counters, latency
   percentiles, per-client counters. A stats object is these followed by
   the work side's graph/cache sections. *)
let core_sections t ~queue_depth =
  let clients =
    Hashtbl.fold (fun _ c acc -> c :: acc) t.clients []
    |> List.sort (fun a b -> compare a.cid b.cid)
  in
  [
    ("uptime_s", Jsonx.Float (Unix.gettimeofday () -. t.t0));
    ( "requests",
      Jsonx.Obj
        [
          ("received", Jsonx.Int t.received);
          ("accepted", Jsonx.Int t.accepted);
          ("completed", Jsonx.Int t.completed);
          ("failed", Jsonx.Int t.failed);
          ("timed_out", Jsonx.Int t.timed_out);
          ( "rejected",
            Jsonx.Obj (List.map (fun (c, n) -> (c, Jsonx.Int n)) t.rejected) );
          ("queue_depth", Jsonx.Int queue_depth);
        ] );
    ("latency", latency_json t);
    ( "clients",
      Jsonx.Obj
        [
          ("active", Jsonx.Int (Hashtbl.length t.clients));
          ("lifetime", Jsonx.Int t.connections);
          ( "counters",
            Jsonx.List
              (List.map
                 (fun c ->
                   Jsonx.Obj
                     [
                       ("cid", Jsonx.Int c.cid);
                       ("peer", Jsonx.Str c.peer);
                       ("submitted", Jsonx.Int c.submitted);
                       ("completed", Jsonx.Int c.completed);
                       ("rejected", Jsonx.Int c.rejected);
                       ("active", Jsonx.Int c.active);
                     ])
                 clients) );
        ] );
  ]

(* Graph/cache sections of one execution context's counters — cache
   hits/misses, in-flight dedup, LRU evictions — which is where the
   serve story's "payload jobs run once" proof lives. *)
let pool_sections (pool : Vp_exec.Progress.snapshot) =
  let cache_total = pool.cache_hits + pool.cache_misses in
  [
    ( "graph",
      Jsonx.Obj
        [
          ("jobs_queued", Jsonx.Int pool.queued);
          ("jobs_done", Jsonx.Int pool.completed);
          ("jobs_failed", Jsonx.Int pool.failed);
          ("deduped", Jsonx.Int pool.deduped);
          ("peak_in_flight", Jsonx.Int pool.peak_in_flight);
          ("node_evictions", Jsonx.Int pool.nodes_evicted);
        ] );
    ( "cache",
      Jsonx.Obj
        [
          ("hits", Jsonx.Int pool.cache_hits);
          ("misses", Jsonx.Int pool.cache_misses);
          ("evicted", Jsonx.Int pool.corrupt_evicted);
          ( "hit_rate",
            Jsonx.Float
              (if cache_total = 0 then 0.0
               else float_of_int pool.cache_hits /. float_of_int cache_total) );
        ] );
  ]

(* The compute layers' memo counters, under the name and shape the
   [--telemetry] summary gives them: the spec-unit artifact memo, with the
   region-formation memo nested as [region_unit]. *)
let spec_unit_section () =
  let fields (s : Vliw_vp.Spec_unit.stats) =
    [
      ("hits", Jsonx.Int s.hits);
      ("misses", Jsonx.Int s.misses);
      ("evictions", Jsonx.Int s.evictions);
    ]
  in
  ( "spec_unit",
    Jsonx.Obj
      (fields (Vliw_vp.Spec_unit.stats ())
      @ [ ("region_unit", Jsonx.Obj (fields (Vliw_vp.Region_unit.stats ()))) ])
  )
