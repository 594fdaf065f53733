(* The sharded daemon's front process.

   The supervisor owns the listeners, the clients and the production
   envelope — admission quotas, request deadlines, graceful drain — and
   routes the actual work to [--workers N] forked shard processes, each
   running {!Server.run_worker}: a resident serve loop with its own
   {!Vp_exec.Graph} and worker domains, talking to the supervisor over a
   socketpair with the ordinary frame protocol. All shards share the one
   content-addressed on-disk store, so a result computed by any shard
   warms every later request whichever process it lands in.

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

type conn = {
  io : Frameio.t;
  cid : int;
  mutable outstanding : int;
  mutable dropped : bool;
}

type req = {
  rid : string;
  rconn : conn;
  total : int;
  mutable results_fwd : int;  (* result frames forwarded so far *)
  mutable subs_open : int;  (* sub-requests not yet done/errored *)
  mutable settled : bool;
  deadline : float option;
  rt0 : float;
}

type sub = { s_req : req; s_worker : worker }

(* One fan-out stats collection: a client [stats] request or the periodic
   snapshot-file tick polls every live shard and aggregates the replies. *)
type poll = {
  p_id : string;  (* the id the shards echo back *)
  p_reply : (conn * string) option;  (* client and its request id; [None]
                                        is the snapshot-file tick *)
  mutable p_pending : int list;  (* slots not yet heard from *)
  mutable p_pools : Jsonx.t list;
}

type t = {
  cfg : Server.config;
  make_exec : unit -> Vp_exec.Context.t;
  telemetry : Telemetry.t;
  workers : worker option array;
  subs : (string, sub) Hashtbl.t;
  polls : (string, poll) Hashtbl.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable listeners : Unix.file_descr list;
  mutable tcp_l : Unix.file_descr option;
  mutable conns : conn list;
  mutable live : req list;
  mutable outstanding : int;
  mutable shutting : bool;
  mutable stopping : bool;  (* drained; shards told to exit *)
  mutable stop_deadline : float;
  mutable next_cid : int;
  mutable next_sid : int;
  mutable next_pid : int;
  mutable last_stats : float;
}

let live_workers t =
  Array.to_list t.workers |> List.filter_map Fun.id
  |> List.filter (fun w -> w.up)

let send conn json = if not conn.dropped then Frameio.send conn.io json

(* --- shard lifecycle --------------------------------------------------- *)

let close_quiet fd = try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

(* Descriptors a freshly forked shard inherited but must not hold open:
   the listeners (else a dead supervisor's socket stays connectable), the
   wake pipe, every client connection and every other shard's link. *)
let child_close_list t ~keep =
  t.listeners @ [ t.wake_r; t.wake_w ]
  @ List.map (fun c -> Frameio.fd c.io) t.conns
  @ List.filter_map
      (fun w ->
        if w.up && Frameio.fd w.wio <> keep then Some (Frameio.fd w.wio)
        else None)
      (Array.to_list t.workers |> List.filter_map Fun.id)

let spawn t slot ~restarts ~routed =
  flush stdout;
  flush stderr;
  let sup_fd, w_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.fork () with
  | 0 ->
      (* the shard: serve the socketpair until told to drain, then die.
         The supervisor owns signal-driven shutdown; a shard must survive
         the terminal's ^C reaching the whole foreground process group. *)
      let code =
        try
          Sys.set_signal Sys.sigint Sys.Signal_ignore;
          Sys.set_signal Sys.sigterm Sys.Signal_ignore;
          close_quiet sup_fd;
          List.iter close_quiet (child_close_list t ~keep:w_fd);
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

(* --- request bookkeeping ----------------------------------------------- *)

let settle_request t (r : req) =
  if not r.settled then begin
    r.settled <- true;
    r.rconn.outstanding <- max 0 (r.rconn.outstanding - 1);
    t.outstanding <- max 0 (t.outstanding - 1)
  end

let reject_submit t conn ~id (rej : P.reject) =
  Telemetry.rejected t.telemetry ~cid:conn.cid ~code:rej.code;
  send conn (P.error ~id rej)

(* --- stats aggregation ------------------------------------------------- *)

let workers_json t =
  Jsonx.List
    (Array.to_list t.workers
    |> List.filter_map Fun.id
    |> List.map (fun w ->
           Jsonx.Obj
             [
               ("slot", Jsonx.Int w.slot);
               ("pid", Jsonx.Int w.pid);
               ("up", Jsonx.Bool w.up);
               ("restarts", Jsonx.Int w.restarts);
               ("routed", Jsonx.Int w.routed);
               ("inflight", Jsonx.Int w.inflight);
               ("uptime_s", Jsonx.Float (Unix.gettimeofday () -. w.spawned));
             ]))

(* Sum the graph/cache sections of the shards' own stats objects. Peak
   in-flight is summed too: it over-counts true simultaneity across
   shards, but as a capacity figure the sum of per-shard peaks is the
   honest bound on what the fleet had running. *)
let aggregate t pools =
  let gi sect field p =
    match Jsonx.member sect p with
    | Some o -> Option.value ~default:0 (Jsonx.int_member field o)
    | None -> 0
  in
  let sum sect field =
    List.fold_left (fun acc p -> acc + gi sect field p) 0 pools
  in
  let hits = sum "cache" "hits" and misses = sum "cache" "misses" in
  let total = hits + misses in
  Jsonx.Obj
    (Telemetry.core_sections t.telemetry ~queue_depth:t.outstanding
    @ [
        ( "graph",
          Jsonx.Obj
            [
              ("jobs_queued", Jsonx.Int (sum "graph" "jobs_queued"));
              ("jobs_done", Jsonx.Int (sum "graph" "jobs_done"));
              ("jobs_failed", Jsonx.Int (sum "graph" "jobs_failed"));
              ("deduped", Jsonx.Int (sum "graph" "deduped"));
              ("peak_in_flight", Jsonx.Int (sum "graph" "peak_in_flight"));
              ("node_evictions", Jsonx.Int (sum "graph" "node_evictions"));
            ] );
        ( "cache",
          Jsonx.Obj
            [
              ("hits", Jsonx.Int hits);
              ("misses", Jsonx.Int misses);
              ("evicted", Jsonx.Int (sum "cache" "evicted"));
              ( "hit_rate",
                Jsonx.Float
                  (if total = 0 then 0.0
                   else float_of_int hits /. float_of_int total) );
            ] );
        ("workers", workers_json t);
      ])

let last_pools t =
  Array.to_list t.workers |> List.filter_map Fun.id
  |> List.filter_map (fun w -> w.last_pool)

let write_stats_file t json =
  match t.cfg.stats_file with
  | None -> ()
  | Some path -> (
      try
        let tmp = path ^ ".tmp" in
        let oc = open_out tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            output_string oc (Jsonx.to_string json);
            output_char oc '\n');
        Sys.rename tmp path
      with Sys_error _ -> ())

let finish_poll t p =
  Hashtbl.remove t.polls p.p_id;
  let json = aggregate t p.p_pools in
  match p.p_reply with
  | Some (conn, id) ->
      send conn (P.event ~id ~event:"stats" [ ("stats", json) ])
  | None -> write_stats_file t json

let start_poll t ~reply =
  let pid = Printf.sprintf "st:%d" t.next_pid in
  t.next_pid <- t.next_pid + 1;
  match live_workers t with
  | [] ->
      let p = { p_id = pid; p_reply = reply; p_pending = []; p_pools = [] } in
      finish_poll t p
  | ws ->
      let p =
        {
          p_id = pid;
          p_reply = reply;
          p_pending = List.map (fun w -> w.slot) ws;
          p_pools = [];
        }
      in
      Hashtbl.replace t.polls pid p;
      List.iter
        (fun w ->
          Frameio.send w.wio
            (Jsonx.Obj [ ("op", Jsonx.Str "stats"); ("id", Jsonx.Str pid) ]))
        ws

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
      let victims =
        Hashtbl.fold
          (fun sid s acc -> if s.s_worker == w then (sid, s) :: acc else acc)
          t.subs []
      in
      List.iter
        (fun (sid, s) ->
          Hashtbl.remove t.subs sid;
          let r = s.s_req in
          if not r.settled then begin
            send r.rconn
              (P.error ~id:r.rid
                 (P.reject "worker_lost"
                    "shard %d (pid %d) died with the request in flight \
                     (%d/%d artifacts delivered); resubmit to retry"
                    w.slot w.pid r.results_fwd r.total));
            settle_request t r;
            Telemetry.failed t.telemetry ~cid:r.rconn.cid
          end)
        victims;
      poll_drop_slot t w.slot;
      spawn t w.slot ~restarts:(w.restarts + 1) ~routed:w.routed
    end
    else poll_drop_slot t w.slot
  end

(* --- client requests --------------------------------------------------- *)

let handle_submit t conn (s : P.submit) =
  if t.shutting then
    reject_submit t conn ~id:s.id
      (P.reject "shutting_down" "server is draining for shutdown")
  else if t.outstanding >= t.cfg.max_pending then
    reject_submit t conn ~id:s.id
      (P.reject "overloaded" "pending queue full (%d requests); retry later"
         t.cfg.max_pending)
  else if conn.outstanding >= t.cfg.client_quota then
    reject_submit t conn ~id:s.id
      (P.reject "quota_exceeded"
         "client has %d requests outstanding (quota %d)" conn.outstanding
         t.cfg.client_quota)
  else
    match Spec.of_submit s with
    | Error rej -> reject_submit t conn ~id:s.id rej
    | Ok spec ->
        let timeout =
          match s.timeout_s with
          | Some ts when ts > 0.0 -> Some ts
          | Some _ -> None
          | None ->
              if t.cfg.default_timeout_s > 0.0 then
                Some t.cfg.default_timeout_s
              else None
        in
        let now = Unix.gettimeofday () in
        let r =
          {
            rid = s.id;
            rconn = conn;
            total = List.length s.experiments;
            results_fwd = 0;
            subs_open = 0;
            settled = false;
            deadline = Option.map (fun ts -> now +. ts) timeout;
            rt0 = now;
          }
        in
        conn.outstanding <- conn.outstanding + 1;
        t.outstanding <- t.outstanding + 1;
        t.live <- r :: t.live;
        Telemetry.accepted t.telemetry ~cid:conn.cid;
        send conn
          (P.accepted ~id:s.id ~artifacts:s.experiments
             ~queue_depth:t.outstanding);
        (* Route by render key: the shard an artifact hashes to is the
           shard whose graph holds (or will hold) that exact node, so
           concurrent equal requests — from this client or any other —
           dedup inside the shard just as in the single-process daemon.
           Duplicate names in one request share a key, hence a shard.
           With one shard there is nothing to route, and no key to
           compute. *)
        let n = Array.length t.workers in
        let buckets = Array.make n [] in
        List.iter
          (fun a ->
            let shard =
              if n = 1 then 0
              else
                Spec.shard_of_key ~workers:n (Spec.render_key spec ~artifact:a)
            in
            buckets.(shard) <- a :: buckets.(shard))
          s.experiments;
        Array.iteri
          (fun slot arts ->
            match List.rev arts with
            | [] -> ()
            | arts -> (
                match t.workers.(slot) with
                | None -> assert false (* every slot is forked at startup *)
                | Some w ->
                    let sid = Printf.sprintf "s:%d" t.next_sid in
                    t.next_sid <- t.next_sid + 1;
                    Hashtbl.replace t.subs sid { s_req = r; s_worker = w };
                    r.subs_open <- r.subs_open + 1;
                    w.routed <- w.routed + List.length arts;
                    w.inflight <- w.inflight + 1;
                    Frameio.send w.wio
                      (P.json_of_submit
                         {
                           s with
                           id = sid;
                           experiments = arts;
                           timeout_s = timeout;
                         })))
          buckets

let handle_client_frame t conn payload =
  match Jsonx.parse payload with
  | Error msg ->
      send conn
        (P.error ~id:"" (P.reject "bad_request" "unparseable frame: %s" msg))
  | Ok json -> (
      Telemetry.received t.telemetry;
      match P.request_of_json json with
      | Error (id, rej) -> reject_submit t conn ~id rej
      | Ok (P.Ping id) -> send conn (P.event ~id ~event:"pong" [])
      | Ok (P.Stats id) -> start_poll t ~reply:(Some (conn, id))
      | Ok (P.Shutdown id) ->
          t.shutting <- true;
          send conn (P.event ~id ~event:"shutting_down" [])
      | Ok (P.Submit s) -> handle_submit t conn s)

let time_out_request t (r : req) =
  send r.rconn
    (P.error ~id:r.rid
       (P.reject "timeout" "request exceeded its budget after %d/%d artifacts"
          r.results_fwd r.total));
  settle_request t r;
  Telemetry.timed_out t.telemetry ~cid:r.rconn.cid

let check_timeouts t =
  let now = Unix.gettimeofday () in
  List.iter
    (fun r ->
      match r.deadline with
      | Some d when (not r.settled) && now > d -> time_out_request t r
      | _ -> ())
    t.live;
  t.live <- List.filter (fun r -> not r.settled) t.live

(* --- shard frames ------------------------------------------------------ *)

let close_sub t w (r : req) sid =
  Hashtbl.remove t.subs sid;
  w.inflight <- max 0 (w.inflight - 1);
  r.subs_open <- max 0 (r.subs_open - 1)

let handle_worker_frame t w payload =
  w.last_seen <- Unix.gettimeofday ();
  match Jsonx.parse payload with
  | Error _ -> () (* a corrupt frame surfaces as a Frame_error upstream *)
  | Ok json -> (
      let id = Option.value ~default:"" (Jsonx.string_member "id" json) in
      let event = Jsonx.string_member "event" json in
      match event with
      | Some "pong" | Some "accepted" | Some "shutting_down" -> ()
      | Some "stats" -> (
          (match Jsonx.member "stats" json with
          | Some pool -> w.last_pool <- Some pool
          | None -> ());
          match Hashtbl.find_opt t.polls id with
          | None -> ()
          | Some p ->
              (match Jsonx.member "stats" json with
              | Some pool -> p.p_pools <- pool :: p.p_pools
              | None -> ());
              p.p_pending <- List.filter (fun s -> s <> w.slot) p.p_pending;
              if p.p_pending = [] then finish_poll t p)
      | Some "result" -> (
          match Hashtbl.find_opt t.subs id with
          | None -> ()
          | Some s ->
              let r = s.s_req in
              if not r.settled then begin
                let artifact =
                  Option.value ~default:""
                    (Jsonx.string_member "artifact" json)
                in
                let data =
                  Option.value ~default:"" (Jsonx.string_member "data" json)
                in
                send r.rconn (P.result ~id:r.rid ~artifact ~data);
                r.results_fwd <- r.results_fwd + 1
              end)
      | Some "done" -> (
          match Hashtbl.find_opt t.subs id with
          | None -> ()
          | Some s ->
              let r = s.s_req in
              close_sub t w r id;
              if (not r.settled) && r.subs_open = 0 then begin
                let wall = Unix.gettimeofday () -. r.rt0 in
                send r.rconn (P.done_ ~id:r.rid ~wall_s:wall);
                settle_request t r;
                Telemetry.completed t.telemetry ~cid:r.rconn.cid ~wall
              end)
      | Some "error" -> (
          match Hashtbl.find_opt t.subs id with
          | None -> ()
          | Some s ->
              let r = s.s_req in
              close_sub t w r id;
              if not r.settled then begin
                let code =
                  Option.value ~default:"job_failed"
                    (Jsonx.string_member "code" json)
                in
                let message =
                  Option.value ~default:"" (Jsonx.string_member "message" json)
                in
                send r.rconn (P.error ~id:r.rid (P.reject code "%s" message));
                settle_request t r;
                if code = "timeout" then
                  Telemetry.timed_out t.telemetry ~cid:r.rconn.cid
                else Telemetry.failed t.telemetry ~cid:r.rconn.cid
              end)
      | Some _ | None -> ())

(* --- socket plumbing --------------------------------------------------- *)

let drop_conn t conn =
  if not conn.dropped then begin
    conn.dropped <- true;
    Telemetry.client_disconnected t.telemetry ~cid:conn.cid;
    List.iter (fun r -> if r.rconn == conn then settle_request t r) t.live;
    t.live <- List.filter (fun r -> not r.settled) t.live;
    (* polls that would answer this client resolve to nowhere *)
    Hashtbl.fold (fun _ p acc -> p :: acc) t.polls []
    |> List.iter (fun p ->
           match p.p_reply with
           | Some (c, _) when c == conn -> Hashtbl.remove t.polls p.p_id
           | _ -> ());
    Frameio.close conn.io;
    t.conns <- List.filter (fun c -> not (c == conn)) t.conns
  end

let read_conn t conn =
  match Frameio.read_step conn.io ~on_frame:(handle_client_frame t conn) with
  | `Ok | `Closed -> ()
  | `Eof | `Io_error -> drop_conn t conn
  | `Frame_error msg ->
      send conn (P.error ~id:"" (P.reject "protocol" "%s" msg));
      ignore (Frameio.write_step conn.io);
      drop_conn t conn

let read_worker t w =
  match Frameio.read_step w.wio ~on_frame:(handle_worker_frame t w) with
  | `Ok | `Closed -> ()
  | `Eof | `Io_error | `Frame_error _ -> on_worker_gone t w

let accept_loop t listener ~peer_name =
  let rec go () =
    match Unix.accept ~cloexec:true listener with
    | fd, addr ->
        Unix.set_nonblock fd;
        let cid = t.next_cid in
        t.next_cid <- cid + 1;
        let peer =
          match addr with
          | Unix.ADDR_UNIX _ -> peer_name
          | Unix.ADDR_INET (host, port) ->
              Printf.sprintf "%s:%d" (Unix.string_of_inet_addr host) port
        in
        let conn =
          {
            io = Frameio.create ~max_frame:t.cfg.max_frame fd;
            cid;
            outstanding = 0;
            dropped = false;
          }
        in
        Telemetry.client_connected t.telemetry ~cid ~peer;
        t.conns <- conn :: t.conns;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* --- heartbeats and ticks ---------------------------------------------- *)

let tick t =
  let now = Unix.gettimeofday () in
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
  match t.cfg.stats_file with
  | Some _
    when (not t.stopping)
         && now -. t.last_stats >= t.cfg.stats_every_s
         && not
              (Hashtbl.fold
                 (fun _ p acc -> acc || p.p_reply = None)
                 t.polls false) ->
      t.last_stats <- now;
      start_poll t ~reply:None
  | _ -> ()

(* --- main loop --------------------------------------------------------- *)

let interrupted = Atomic.make false

let run ?(on_ready = fun () -> ()) ~make_exec ~workers (cfg : Server.config) =
  if workers < 1 then invalid_arg "Supervisor.run: workers must be >= 1";
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    {
      cfg;
      make_exec;
      telemetry = Telemetry.create ();
      workers = Array.make workers None;
      subs = Hashtbl.create 64;
      polls = Hashtbl.create 8;
      wake_r;
      wake_w;
      listeners = [];
      tcp_l = None;
      conns = [];
      live = [];
      outstanding = 0;
      shutting = false;
      stopping = false;
      stop_deadline = 0.0;
      next_cid = 1;
      next_sid = 0;
      next_pid = 0;
      last_stats = Unix.gettimeofday ();
    }
  in
  let wake () =
    try ignore (Unix.write_substring t.wake_w "x" 0 1)
    with
    | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE), _, _)
    ->
      ()
  in
  let drain_wake () =
    let buf = Bytes.create 256 in
    let rec go () =
      match Unix.read t.wake_r buf 0 (Bytes.length buf) with
      | n when n > 0 -> go ()
      | _ -> ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    in
    go ()
  in
  (* Listeners must exist before the forks so the shards can close their
     inherited copies; the shards themselves never accept. *)
  let unix_l = Server.unix_listener cfg.socket_path in
  let tcp_l = Option.map Server.tcp_listener cfg.tcp_port in
  t.listeners <- (unix_l :: Option.to_list tcp_l);
  t.tcp_l <- tcp_l;
  (* Every shard is forked before any domain can exist in this process —
     and the supervisor never spawns one, which is what keeps re-forking
     crashed shards legal for the life of the daemon. *)
  for slot = 0 to workers - 1 do
    spawn t slot ~restarts:0 ~routed:0
  done;
  Atomic.set interrupted false;
  let on_signal _ =
    Atomic.set interrupted true;
    wake ()
  in
  let old_int = Sys.signal Sys.sigint (Sys.Signal_handle on_signal) in
  let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle on_signal) in
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  on_ready ();
  let listeners_open = ref true in
  let close_listeners () =
    if !listeners_open then begin
      listeners_open := false;
      List.iter close_quiet t.listeners
    end
  in
  let finished () =
    t.stopping
    && List.for_all (fun w -> not w.up)
         (Array.to_list t.workers |> List.filter_map Fun.id)
    && List.for_all (fun c -> not (Frameio.pending_out c.io)) t.conns
  in
  let rec loop () =
    if Atomic.get interrupted then t.shutting <- true;
    if t.shutting then close_listeners ();
    (* drained: snapshot final telemetry from the shards' last stats
       responses, then tell every shard to exit *)
    if t.shutting && (not t.stopping) && t.outstanding = 0 then begin
      t.stopping <- true;
      t.stop_deadline <- Unix.gettimeofday () +. stop_grace_s;
      write_stats_file t (aggregate t (last_pools t));
      List.iter
        (fun w ->
          Frameio.send w.wio
            (Jsonx.Obj
               [ ("op", Jsonx.Str "shutdown"); ("id", Jsonx.Str "bye") ]))
        (live_workers t)
    end;
    if t.stopping && Unix.gettimeofday () > t.stop_deadline then
      List.iter (fun w -> on_worker_gone t w) (live_workers t);
    if not (finished ()) then begin
      let worker_fds = List.map (fun w -> Frameio.fd w.wio) (live_workers t) in
      let reads =
        (t.wake_r :: (if !listeners_open then t.listeners else []))
        @ worker_fds
        @ List.map (fun c -> Frameio.fd c.io) t.conns
      in
      let writes =
        List.filter_map
          (fun w ->
            if Frameio.pending_out w.wio then Some (Frameio.fd w.wio)
            else None)
          (live_workers t)
        @ List.filter_map
            (fun c ->
              if Frameio.pending_out c.io then Some (Frameio.fd c.io)
              else None)
            t.conns
      in
      (* Heartbeats need a periodic tick even when idle; 2 s matches the
         ping cadence. Live requests and the stopping grace window want a
         snappier 200 ms. *)
      let timeout =
        if t.live <> [] || t.stopping || Hashtbl.length t.polls > 0 then 0.2
        else heartbeat_every_s
      in
      let readable, writable, _ =
        match Unix.select reads writes [] timeout with
        | r -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      if List.mem t.wake_r readable then drain_wake ();
      if !listeners_open then
        List.iter
          (fun l ->
            if List.mem l readable then
              accept_loop t l
                ~peer_name:
                  (if Some l = t.tcp_l then "tcp" else cfg.socket_path))
          t.listeners;
      List.iter
        (fun w ->
          if w.up && List.mem (Frameio.fd w.wio) readable then read_worker t w)
        (live_workers t);
      List.iter
        (fun c ->
          if (not c.dropped) && List.mem (Frameio.fd c.io) readable then
            read_conn t c)
        t.conns;
      check_timeouts t;
      tick t;
      List.iter
        (fun w ->
          if
            w.up
            && (List.mem (Frameio.fd w.wio) writable
               || Frameio.pending_out w.wio)
          then
            match Frameio.write_step w.wio with
            | `Ok -> ()
            | `Io_error -> on_worker_gone t w)
        (live_workers t);
      List.iter
        (fun c ->
          if (not c.dropped) && Frameio.pending_out c.io then
            match Frameio.write_step c.io with
            | `Ok -> ()
            | `Io_error -> drop_conn t c)
        t.conns;
      loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      close_listeners ();
      List.iter
        (fun w ->
          if w.up then begin
            w.up <- false;
            Frameio.close w.wio;
            reap w
          end)
        (Array.to_list t.workers |> List.filter_map Fun.id);
      List.iter (fun c -> drop_conn t c) t.conns;
      close_quiet t.wake_r;
      close_quiet t.wake_w;
      (try Sys.remove cfg.socket_path with Sys_error _ -> ());
      Sys.set_signal Sys.sigint old_int;
      Sys.set_signal Sys.sigterm old_term;
      Sys.set_signal Sys.sigpipe old_pipe)
    loop;
  aggregate t (last_pools t)
