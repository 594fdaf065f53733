(* The sharded daemon's work side.

   {!run} is the client-facing loop of {!Server.serve} — listeners,
   admission, deadlines, drain, telemetry — with the work routed to
   [--workers N] forked shard processes, each running
   {!Server.run_worker}: the same loop with its own {!Vp_exec.Graph} and
   worker domains, talking to the supervisor over a socketpair with the
   ordinary frame protocol. All shards share the one content-addressed
   on-disk store, so a result computed by any shard warms every later
   request whichever process it lands in.

   Routing is by artifact identity: each artifact's {!Spec.render_key} —
   the same content address the shard's graph dedups on — hashes to a
   shard ({!Spec.shard_of_key}). Equal work therefore always lands on the
   same shard, preserving in-flight dedup across clients exactly as the
   single-process daemon does, and the mapping is a pure function of the
   key, so it survives a shard being re-forked.

   Fork discipline: OCaml's [Unix.fork] refuses to run once any domain
   exists, so the supervisor forks every shard {e before} a single domain
   is spawned and never creates domains itself — each child spawns its
   own graph workers after the fork, and re-forking a crashed shard stays
   legal for the life of the process.

   Failure containment: a shard that exits or wedges (socketpair EOF, or
   heartbeat silence past {!dead_after_s}) is SIGKILLed and reaped; its
   in-flight sub-requests fail back to their clients as structured
   [worker_lost] errors; the slot is re-forked immediately. Other
   clients, other shards and the supervisor itself never notice beyond
   the error frames. *)

module P = Protocol

let heartbeat_every_s = 2.0
let dead_after_s = 15.0
let stop_grace_s = 5.0

type worker = {
  slot : int;
  pid : int;
  wio : Frameio.t;
  spawned : float;
  restarts : int;  (* re-forks of this slot before this incarnation *)
  mutable up : bool;
  mutable last_seen : float;  (* any frame from the shard *)
  mutable last_ping : float;
  mutable routed : int;  (* lifetime artifacts routed to this slot *)
  mutable inflight : int;  (* unsettled sub-requests *)
  mutable last_pool : Jsonx.t option;  (* most recent stats response *)
}

type sub = { s_req : Server.req; s_worker : worker }

(* One fan-out stats collection: a client [stats] request or a periodic
   snapshot polls every live shard and aggregates the replies. *)
type poll = {
  p_id : string;  (* the id the shards echo back *)
  p_reply : (string * Jsonx.t) list -> unit;
  mutable p_pending : int list;  (* slots not yet heard from *)
  mutable p_pools : Jsonx.t list;
}

type t = {
  front : Server.front;
  cfg : Server.config;
  make_exec : unit -> Vp_exec.Context.t;
  workers : worker option array;
  subs : (string, sub) Hashtbl.t;
  polls : (string, poll) Hashtbl.t;
  mutable stopping : bool;  (* drained; shards told to exit *)
  mutable stop_deadline : float;
  mutable next_sid : int;
  mutable next_pid : int;
}

let all_workers t = Array.to_list t.workers |> List.filter_map Fun.id
let live_workers t = List.filter (fun w -> w.up) (all_workers t)

(* --- shard lifecycle --------------------------------------------------- *)

let spawn t slot ~restarts ~routed =
  flush stdout;
  flush stderr;
  let sup_fd, w_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.fork () with
  | 0 ->
      (* the shard: serve the socketpair until told to drain, then die.
         The supervisor owns signal-driven shutdown; a shard must survive
         the terminal's ^C reaching the whole foreground process group.
         It must not hold open what it inherited either: the listeners
         (else a dead supervisor's socket stays connectable), the
         self-pipe, every client connection and every other shard's
         link. *)
      let code =
        try
          Sys.set_signal Sys.sigint Sys.Signal_ignore;
          Sys.set_signal Sys.sigterm Sys.Signal_ignore;
          List.iter
            (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
            ((sup_fd :: Server.inherited_fds t.front)
            @ List.filter_map
                (fun w -> if w.up then Some (Frameio.fd w.wio) else None)
                (all_workers t));
          let exec = t.make_exec () in
          ignore (Server.run_worker ~exec t.cfg w_fd);
          0
        with _ -> 1
      in
      Unix._exit code
  | pid ->
      Unix.close w_fd;
      Unix.set_nonblock sup_fd;
      let now = Unix.gettimeofday () in
      t.workers.(slot) <-
        Some
          {
            slot;
            pid;
            wio = Frameio.create ~max_frame:t.cfg.max_frame sup_fd;
            spawned = now;
            restarts;
            up = true;
            last_seen = now;
            last_ping = now;
            routed;
            inflight = 0;
            last_pool = None;
          }

let reap w =
  (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
  try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error (_, _, _) -> ()

(* --- stats aggregation ------------------------------------------------- *)

let workers_json t =
  Jsonx.List
    (List.map
       (fun w ->
         Jsonx.Obj
           [
             ("slot", Jsonx.Int w.slot);
             ("pid", Jsonx.Int w.pid);
             ("up", Jsonx.Bool w.up);
             ("restarts", Jsonx.Int w.restarts);
             ("routed", Jsonx.Int w.routed);
             ("inflight", Jsonx.Int w.inflight);
             ("uptime_s", Jsonx.Float (Unix.gettimeofday () -. w.spawned));
           ])
       (all_workers t))

(* Sum the graph/cache/spec_unit sections of the shards' own stats
   objects. Peak in-flight is summed too: it over-counts true simultaneity
   across shards, but as a capacity figure the sum of per-shard peaks is
   the honest bound on what the fleet had running. *)
let sections t pools =
  let rec get o = function
    | [] -> Jsonx.get_int o
    | field :: rest -> Option.bind (Jsonx.member field o) (fun o -> get o rest)
  in
  let sum path =
    List.fold_left
      (fun acc p -> acc + Option.value ~default:0 (get p path))
      0 pools
  in
  let ints sect fields =
    List.map (fun f -> (f, Jsonx.Int (sum (sect @ [ f ])))) fields
  in
  let hits = sum [ "cache"; "hits" ] and misses = sum [ "cache"; "misses" ] in
  let total = hits + misses in
  let memo = [ "hits"; "misses"; "evictions" ] in
  [
    ( "graph",
      Jsonx.Obj
        (ints [ "graph" ]
           [
             "jobs_queued";
             "jobs_done";
             "jobs_failed";
             "deduped";
             "peak_in_flight";
             "node_evictions";
           ]) );
    ( "cache",
      Jsonx.Obj
        [
          ("hits", Jsonx.Int hits);
          ("misses", Jsonx.Int misses);
          ("evicted", Jsonx.Int (sum [ "cache"; "evicted" ]));
          ( "hit_rate",
            Jsonx.Float
              (if total = 0 then 0.0
               else float_of_int hits /. float_of_int total) );
        ] );
    ( "spec_unit",
      Jsonx.Obj
        (ints [ "spec_unit" ] memo
        @ [
            ( "region_unit",
              Jsonx.Obj (ints [ "spec_unit"; "region_unit" ] memo) );
          ]) );
    ("workers", workers_json t);
  ]

let finish_poll t p =
  Hashtbl.remove t.polls p.p_id;
  p.p_reply (sections t p.p_pools)

let start_poll t reply =
  let p_id = Printf.sprintf "st:%d" t.next_pid in
  t.next_pid <- t.next_pid + 1;
  let ws = live_workers t in
  let p =
    {
      p_id;
      p_reply = reply;
      p_pending = List.map (fun w -> w.slot) ws;
      p_pools = [];
    }
  in
  if ws = [] then finish_poll t p
  else begin
    Hashtbl.replace t.polls p_id p;
    List.iter
      (fun w ->
        Frameio.send w.wio
          (Jsonx.Obj [ ("op", Jsonx.Str "stats"); ("id", Jsonx.Str p_id) ]))
      ws
  end

let poll_drop_slot t slot =
  Hashtbl.fold (fun _ p acc -> p :: acc) t.polls []
  |> List.iter (fun p ->
         if List.mem slot p.p_pending then begin
           p.p_pending <- List.filter (fun s -> s <> slot) p.p_pending;
           if p.p_pending = [] then finish_poll t p
         end)

(* --- shard failure ----------------------------------------------------- *)

(* A shard is gone — EOF, I/O error or heartbeat silence. Kill and reap
   it, fail every request with an in-flight sub on it (structured
   [worker_lost]; the client's resubmit will hit the re-forked shard and,
   for whatever other shards finished meanwhile, the warm store), settle
   any stats polls waiting on it, and re-fork the slot so the next
   request routes normally. During the final drain shards exit on
   purpose: just reap, never re-fork. *)
let on_worker_gone t w =
  if w.up then begin
    w.up <- false;
    Frameio.close w.wio;
    reap w;
    if not t.stopping then begin
      Hashtbl.fold
        (fun sid s acc -> if s.s_worker == w then (sid, s) :: acc else acc)
        t.subs []
      |> List.iter (fun (sid, s) ->
             Hashtbl.remove t.subs sid;
             let r = s.s_req in
             Server.fail t.front r
               (P.reject "worker_lost"
                  "shard %d (pid %d) died with the request in flight (%d/%d \
                   artifacts delivered); resubmit to retry"
                  w.slot w.pid (Server.delivered r) (Server.total r)))
    end;
    poll_drop_slot t w.slot;
    if not t.stopping then
      spawn t w.slot ~restarts:(w.restarts + 1) ~routed:w.routed
  end

(* --- routing ----------------------------------------------------------- *)

(* Route by render key: the shard an artifact hashes to is the shard
   whose graph holds (or will hold) that exact node, so concurrent equal
   requests — from this client or any other — dedup inside the shard just
   as in the single-process daemon. Duplicate names in one request share
   a key, hence a shard. With one shard there is nothing to route, and no
   key to compute. [s.timeout_s] is the request's resolved budget, so
   each shard stops at the same deadline. *)
let dispatch t r spec (s : P.submit) =
  let n = Array.length t.workers in
  let buckets = Array.make n [] in
  List.iter
    (fun a ->
      let shard =
        if n = 1 then 0
        else Spec.shard_of_key ~workers:n (Spec.render_key spec ~artifact:a)
      in
      buckets.(shard) <- a :: buckets.(shard))
    s.experiments;
  Array.iteri
    (fun slot arts ->
      match (List.rev arts, t.workers.(slot)) with
      | [], _ -> ()
      | _, None -> assert false (* every slot is forked at startup *)
      | arts, Some w ->
          let sid = Printf.sprintf "s:%d" t.next_sid in
          t.next_sid <- t.next_sid + 1;
          Hashtbl.replace t.subs sid { s_req = r; s_worker = w };
          w.routed <- w.routed + List.length arts;
          w.inflight <- w.inflight + 1;
          Frameio.send w.wio
            (P.json_of_submit { s with id = sid; experiments = arts }))
    buckets

(* --- shard frames ------------------------------------------------------ *)

let close_sub t w sid =
  if Hashtbl.mem t.subs sid then begin
    Hashtbl.remove t.subs sid;
    w.inflight <- w.inflight - 1
  end

(* A request is done when all its results are delivered, which the front
   loop counts; a shard's [done] only closes its sub-request. *)
let handle_event t w json =
  let id = Option.value ~default:"" (Jsonx.string_member "id" json) in
  let str field = Option.value ~default:"" (Jsonx.string_member field json) in
  match Jsonx.string_member "event" json with
  | Some "stats" -> (
      let pool = Jsonx.member "stats" json in
      if pool <> None then w.last_pool <- pool;
      match Hashtbl.find_opt t.polls id with
      | None -> ()
      | Some p ->
          p.p_pools <- Option.to_list pool @ p.p_pools;
          p.p_pending <- List.filter (fun s -> s <> w.slot) p.p_pending;
          if p.p_pending = [] then finish_poll t p)
  | Some "done" -> close_sub t w id
  | Some "error" -> (
      match Hashtbl.find_opt t.subs id with
      | None -> ()
      | Some s ->
          close_sub t w id;
          let code =
            Option.value ~default:"job_failed" (Jsonx.string_member "code" json)
          in
          Server.fail t.front s.s_req (P.reject code "%s" (str "message")))
  | Some _ | None -> ()

(* A result frame is re-headed with the client's id as it stands, never
   parsed: the shard is this same binary, whose results
   [Protocol.result_frame] lays out under an id with no escape ("s:N"),
   so [Protocol.split_result] takes every one apart. The other frames
   ([accepted], [done], [error], [stats], [pong]) are parsed. *)
let handle_worker_frame t w payload =
  w.last_seen <- Unix.gettimeofday ();
  match P.split_result payload with
  | Some (sid, body) -> (
      match Hashtbl.find_opt t.subs sid with
      | None -> ()
      | Some s -> Server.deliver t.front s.s_req body)
  | None -> (
      match Jsonx.parse payload with
      | Ok json -> handle_event t w json
      | Error _ -> () (* a corrupt frame surfaces as a Frame_error upstream *))

(* --- the work side ----------------------------------------------------- *)

let step t readable =
  let now = Unix.gettimeofday () in
  List.iter
    (fun w ->
      if List.mem (Frameio.fd w.wio) readable then
        match Frameio.read_step w.wio ~on_frame:(handle_worker_frame t w) with
        | `Ok | `Closed -> ()
        | `Eof | `Io_error | `Frame_error _ -> on_worker_gone t w)
    (live_workers t);
  List.iter
    (fun w ->
      if now -. w.last_seen > dead_after_s then on_worker_gone t w
      else if
        now -. w.last_seen > heartbeat_every_s
        && now -. w.last_ping > heartbeat_every_s
      then begin
        w.last_ping <- now;
        Frameio.send w.wio
          (Jsonx.Obj [ ("op", Jsonx.Str "ping"); ("id", Jsonx.Str "hb") ])
      end)
    (live_workers t);
  List.iter
    (fun w ->
      if Frameio.pending_out w.wio then
        match Frameio.write_step w.wio with
        | `Ok -> ()
        | `Io_error -> on_worker_gone t w)
    (live_workers t)

(* Every request has settled: tell each shard to exit, then wait for
   them, killing whatever is left after the grace period. *)
let wind_down t =
  if not t.stopping then begin
    t.stopping <- true;
    t.stop_deadline <- Unix.gettimeofday () +. stop_grace_s;
    List.iter
      (fun w ->
        Frameio.send w.wio
          (Jsonx.Obj [ ("op", Jsonx.Str "shutdown"); ("id", Jsonx.Str "bye") ]))
      (live_workers t)
  end
  else if Unix.gettimeofday () > t.stop_deadline then
    List.iter (on_worker_gone t) (live_workers t);
  live_workers t = []

let stop t =
  List.iter
    (fun w ->
      w.up <- false;
      Frameio.close w.wio;
      reap w)
    (live_workers t);
  sections t (List.filter_map (fun w -> w.last_pool) (all_workers t))

let run ?on_ready ~make_exec ~workers (cfg : Server.config) =
  if workers < 1 then invalid_arg "Supervisor.run: workers must be >= 1";
  Server.serve ?on_ready cfg (fun front ->
      let t =
        {
          front;
          cfg;
          make_exec;
          workers = Array.make workers None;
          subs = Hashtbl.create 64;
          polls = Hashtbl.create 8;
          stopping = false;
          stop_deadline = 0.0;
          next_sid = 0;
          next_pid = 0;
        }
      in
      (* Every shard is forked before any domain can exist in this
         process — and the supervisor never spawns one, which is what
         keeps re-forking crashed shards legal for the life of the
         daemon. *)
      for slot = 0 to workers - 1 do
        spawn t slot ~restarts:0 ~routed:0
      done;
      {
        Server.dispatch = dispatch t;
        stats = start_poll t;
        fds =
          (fun () ->
            let ws = live_workers t in
            ( List.map (fun w -> Frameio.fd w.wio) ws,
              List.filter_map
                (fun w ->
                  if Frameio.pending_out w.wio then Some (Frameio.fd w.wio)
                  else None)
                ws ));
        step = step t;
        (* heartbeats need a periodic tick even when idle *)
        idle_timeout = heartbeat_every_s;
        wind_down = (fun () -> wind_down t);
        stop = (fun () -> stop t);
      })
