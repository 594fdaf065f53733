(* The resident simulation daemon: its one client-facing loop and the
   in-process work side.

   Every daemon runs {!serve}: a [Unix.select] loop on the caller's thread
   over non-blocking sockets that accepts connections, decodes request
   frames, admits requests, answers [accepted], enforces deadlines,
   settles requests and keeps their telemetry, drops vanished clients,
   turns SIGINT/SIGTERM into a graceful drain and writes the
   [--stats-file] snapshots. It does not do the work: an admitted request
   goes to a {!work} side, which hands each artifact back through
   {!deliver} or {!fail}. There are two:

   - {!local}, for [--workers 0] ({!run}) and for every shard
     ({!run_worker}): the request's artifacts are declared as nodes on one
     shared {!Vp_exec.Graph} whose resident worker domains
     ([Graph.start_workers], one per [--jobs]) execute them. Each artifact
     subscribes with [Graph.on_complete]; the callback — running on
     whichever worker domain finished the node — pushes the rendered
     result onto a mutex-protected completion queue and pokes the
     self-pipe, so the select loop wakes at once. Nothing in the loop ever
     blocks on a simulation.
   - the forked shards of {!Supervisor}, reached over socketpairs.

   Sharing is the point of the local side: every request's nodes are
   declared onto the same graph with the same content-addressed keys the
   CLI uses (see {!Spec}), so overlapping requests from any number of
   clients resolve to in-flight nodes (graph dedup), to already-finished
   nodes of an earlier request (the graph keeps results, bounded by the
   node-cache LRU), or to the on-disk store (warm cache) — the payload
   simulations run once.

   A shard runs the same loop over exactly one connection — the
   socketpair to its supervisor — with no listeners and no signal
   handlers; admission limits and client-facing deadlines are the
   supervisor's, and its own are off. *)

module G = Vp_exec.Graph

type config = {
  socket_path : string;
  tcp_port : int option;  (** additional 127.0.0.1 TCP listener *)
  max_pending : int;  (** admitted-but-unfinished requests, server-wide *)
  client_quota : int;  (** admitted-but-unfinished requests per connection *)
  default_timeout_s : float;  (** per request; [0.] disables *)
  max_frame : int;
  stats_file : string option;  (** periodic telemetry snapshot target *)
  stats_every_s : float;
  node_cap : int option;  (** graph node-cache LRU bound; [None] = unbounded *)
}

let default_config ~socket () =
  {
    socket_path = socket;
    tcp_port = None;
    max_pending = 64;
    client_quota = 16;
    default_timeout_s = 300.0;
    max_frame = Protocol.default_max_frame;
    stats_file = None;
    stats_every_s = 10.0;
    node_cap = None;
  }

(* --- connections, requests and the work side --------------------------- *)

type conn = {
  io : Frameio.t;
  cid : int;
  mutable outstanding : int;  (* admitted requests not yet settled *)
  mutable dropped : bool;
}

type req = {
  rid : string;
  rconn : conn;
  total : int;
  mutable delivered : int;  (* result frames sent *)
  mutable settled : bool;  (* done, errored, timed out or client gone *)
  deadline : float option;
  rt0 : float;
}

let delivered r = r.delivered
let total r = r.total

type work = {
  dispatch : req -> Spec.t -> Protocol.submit -> unit;
  stats : ((string * Jsonx.t) list -> unit) -> unit;
  fds : unit -> Unix.file_descr list * Unix.file_descr list;
  step : Unix.file_descr list -> unit;
  idle_timeout : float;
  wind_down : unit -> bool;
  stop : unit -> (string * Jsonx.t) list;
}

type front = {
  cfg : config;
  telemetry : Telemetry.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  interrupted : bool Atomic.t;  (* set by the SIGINT/SIGTERM handler *)
  mutable listeners : Unix.file_descr list;  (* [] once closed *)
  mutable conns : conn list;
  mutable live : req list;
  mutable outstanding : int;
  mutable shutting : bool;
  mutable draining : bool;  (* shutting, with nothing outstanding *)
  mutable next_cid : int;
  mutable last_stats : float;
  mutable snapshot_pending : bool;  (* a [--stats-file] snapshot in flight *)
}

let send conn json = if not conn.dropped then Frameio.send conn.io json

let wake t =
  (* a full pipe already guarantees a pending wakeup *)
  try ignore (Unix.write_substring t.wake_w "x" 0 1)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE), _, _) ->
    ()

let drain_wake t =
  let buf = Bytes.create 256 in
  let rec go () =
    match Unix.read t.wake_r buf 0 (Bytes.length buf) with
    | n when n > 0 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let close_quiet fd = try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

let inherited_fds t =
  (t.wake_r :: t.wake_w :: t.listeners)
  @ List.map (fun c -> Frameio.fd c.io) t.conns

(* --- telemetry --------------------------------------------------------- *)

let stats_json t sections =
  Jsonx.Obj
    (Telemetry.core_sections t.telemetry ~queue_depth:t.outstanding @ sections)

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

(* --- settlement -------------------------------------------------------- *)

let settle t r =
  if not r.settled then begin
    r.settled <- true;
    r.rconn.outstanding <- max 0 (r.rconn.outstanding - 1);
    t.outstanding <- max 0 (t.outstanding - 1)
  end

let expired r =
  match r.deadline with Some d -> Unix.gettimeofday () > d | None -> false

let time_out t r =
  send r.rconn
    (Protocol.error ~id:r.rid
       (Protocol.reject "timeout"
          "request exceeded its budget after %d/%d artifacts" r.delivered
          r.total));
  settle t r;
  Telemetry.timed_out t.telemetry ~cid:r.rconn.cid

(* Budget enforcement is by deadline, not by luck of scheduling: whatever
   arrives for a request past its deadline turns into its timeout, even if
   no tick has fired yet. *)
let deliver t r body =
  if not r.settled then
    if expired r then time_out t r
    else begin
      Frameio.send_frame r.rconn.io (Protocol.result_frame ~id:r.rid body);
      r.delivered <- r.delivered + 1;
      if r.delivered = r.total then begin
        let wall = Unix.gettimeofday () -. r.rt0 in
        send r.rconn (Protocol.done_ ~id:r.rid ~wall_s:wall);
        settle t r;
        Telemetry.completed t.telemetry ~cid:r.rconn.cid ~wall
      end
    end

let fail t r (rej : Protocol.reject) =
  if not r.settled then
    if expired r then time_out t r
    else begin
      send r.rconn (Protocol.error ~id:r.rid rej);
      settle t r;
      if rej.code = "timeout" then
        Telemetry.timed_out t.telemetry ~cid:r.rconn.cid
      else Telemetry.failed t.telemetry ~cid:r.rconn.cid
    end

let check_timeouts t =
  List.iter (fun r -> if (not r.settled) && expired r then time_out t r) t.live;
  t.live <- List.filter (fun r -> not r.settled) t.live

(* --- admission --------------------------------------------------------- *)

let reject_submit t conn ~id (rej : Protocol.reject) =
  Telemetry.rejected t.telemetry ~cid:conn.cid ~code:rej.code;
  send conn (Protocol.error ~id rej)

(* The fixed order keeps rejections deterministic under test. *)
let handle_submit t w conn (s : Protocol.submit) =
  if t.shutting then
    reject_submit t conn ~id:s.id
      (Protocol.reject "shutting_down" "server is draining for shutdown")
  else if t.outstanding >= t.cfg.max_pending then
    reject_submit t conn ~id:s.id
      (Protocol.reject "overloaded"
         "pending queue full (%d requests); retry later" t.cfg.max_pending)
  else if conn.outstanding >= t.cfg.client_quota then
    reject_submit t conn ~id:s.id
      (Protocol.reject "quota_exceeded"
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
            delivered = 0;
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
          (Protocol.accepted ~id:s.id ~artifacts:s.experiments
             ~queue_depth:t.outstanding);
        w.dispatch r spec { s with timeout_s = timeout }

let handle_frame t w conn payload =
  match Jsonx.parse payload with
  | Error msg ->
      send conn
        (Protocol.error ~id:""
           (Protocol.reject "bad_request" "unparseable frame: %s" msg))
  | Ok json -> (
      Telemetry.received t.telemetry;
      match Protocol.request_of_json json with
      | Error (id, rej) -> reject_submit t conn ~id rej
      | Ok (Protocol.Ping id) -> send conn (Protocol.event ~id ~event:"pong" [])
      | Ok (Protocol.Stats id) ->
          w.stats (fun sections ->
              send conn
                (Protocol.event ~id ~event:"stats"
                   [ ("stats", stats_json t sections) ]))
      | Ok (Protocol.Shutdown id) ->
          t.shutting <- true;
          send conn (Protocol.event ~id ~event:"shutting_down" [])
      | Ok (Protocol.Submit s) -> handle_submit t w conn s)

(* --- socket plumbing --------------------------------------------------- *)

let add_conn t fd ~peer =
  let cid = t.next_cid in
  t.next_cid <- cid + 1;
  Telemetry.client_connected t.telemetry ~cid ~peer;
  t.conns <-
    { io = Frameio.create ~max_frame:t.cfg.max_frame fd; cid; outstanding = 0;
      dropped = false }
    :: t.conns

let drop_conn t conn =
  if not conn.dropped then begin
    conn.dropped <- true;
    Telemetry.client_disconnected t.telemetry ~cid:conn.cid;
    (* requests of a vanished client: stop tracking, nothing to send *)
    List.iter (fun r -> if r.rconn == conn then settle t r) t.live;
    t.live <- List.filter (fun r -> not r.settled) t.live;
    Frameio.close conn.io;
    t.conns <- List.filter (fun c -> not (c == conn)) t.conns
  end

let accept_loop t listener =
  let rec go () =
    match Unix.accept ~cloexec:true listener with
    | fd, addr ->
        Unix.set_nonblock fd;
        add_conn t fd
          ~peer:
            (match addr with
            | Unix.ADDR_UNIX _ -> t.cfg.socket_path
            | Unix.ADDR_INET (host, port) ->
                Printf.sprintf "%s:%d" (Unix.string_of_inet_addr host) port);
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let read_conn t w conn =
  match Frameio.read_step conn.io ~on_frame:(handle_frame t w conn) with
  | `Ok | `Closed -> ()
  | `Eof | `Io_error -> drop_conn t conn
  | `Frame_error msg ->
      send conn (Protocol.error ~id:"" (Protocol.reject "protocol" "%s" msg));
      (* flush the error best-effort, then drop *)
      ignore (Frameio.write_step conn.io);
      drop_conn t conn

let write_conn t conn =
  match Frameio.write_step conn.io with
  | `Ok -> ()
  | `Io_error -> drop_conn t conn

let unix_listener path =
  (if Sys.file_exists path then
     (* stale socket from a dead daemon is unlinked; a live one is an error *)
     let probe = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
     match Unix.connect probe (Unix.ADDR_UNIX path) with
     | () ->
         Unix.close probe;
         failwith (Printf.sprintf "socket %s: a daemon is already listening" path)
     | exception Unix.Unix_error (_, _, _) ->
         Unix.close probe;
         (try Sys.remove path with Sys_error _ -> ()));
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 128;
  Unix.set_nonblock fd;
  fd

let tcp_listener port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 128;
  Unix.set_nonblock fd;
  fd

(* --- the loop ---------------------------------------------------------- *)

let close_listeners t =
  List.iter close_quiet t.listeners;
  t.listeners <- []

let maybe_snapshot t w =
  match t.cfg.stats_file with
  | Some _ when not (t.draining || t.snapshot_pending) ->
      let now = Unix.gettimeofday () in
      if now -. t.last_stats >= t.cfg.stats_every_s then begin
        t.last_stats <- now;
        t.snapshot_pending <- true;
        w.stats (fun sections ->
            t.snapshot_pending <- false;
            write_stats_file t (stats_json t sections))
      end
  | _ -> ()

let rec loop t w =
  (* with no listener and no connection left, nothing can arrive *)
  if Atomic.get t.interrupted || (t.listeners = [] && t.conns = []) then
    t.shutting <- true;
  if t.shutting then begin
    close_listeners t;
    if t.outstanding = 0 then t.draining <- true
  end;
  if
    not
      (t.draining && w.wind_down ()
      && List.for_all (fun c -> not (Frameio.pending_out c.io)) t.conns)
  then begin
    let work_reads, work_writes = w.fds () in
    let reads =
      (t.wake_r :: t.listeners) @ work_reads
      @ List.map (fun c -> Frameio.fd c.io) t.conns
    in
    let writes =
      work_writes
      @ List.filter_map
          (fun c ->
            if Frameio.pending_out c.io then Some (Frameio.fd c.io) else None)
          t.conns
    in
    (* Only tick when something is time-driven: request deadlines or
       periodic stats snapshots (shutdown progress is event-driven but
       ticks too, cheaply, as a backstop). Otherwise the work side says:
       an idle in-process daemon blocks until a socket or the self-pipe
       wakes it — zero allocation and zero CPU between requests, which
       also keeps a resident daemon from defeating heap stabilization
       (Gc.compact convergence) for anything else in the process, e.g.
       the bench harness. *)
    let timeout =
      if t.live <> [] || t.shutting || t.cfg.stats_file <> None then 0.2
      else w.idle_timeout
    in
    let readable, _, _ =
      match Unix.select reads writes [] timeout with
      | r -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if List.mem t.wake_r readable then drain_wake t;
    List.iter (fun l -> if List.mem l readable then accept_loop t l) t.listeners;
    List.iter
      (fun c -> if List.mem (Frameio.fd c.io) readable then read_conn t w c)
      t.conns;
    w.step readable;
    check_timeouts t;
    maybe_snapshot t w;
    List.iter (fun c -> if Frameio.pending_out c.io then write_conn t c) t.conns;
    loop t w
  end

(* Run the loop until it winds down, on the listeners (with SIGINT and
   SIGTERM draining it) or, for a shard, on the one [link] connection. *)
let run_front ?(on_ready = fun () -> ()) ?link cfg make_work =
  let listeners =
    match link with
    | Some _ -> []
    | None ->
        unix_listener cfg.socket_path
        :: Option.to_list (Option.map tcp_listener cfg.tcp_port)
  in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    {
      cfg;
      telemetry = Telemetry.create ();
      wake_r;
      wake_w;
      interrupted = Atomic.make false;
      listeners;
      conns = [];
      live = [];
      outstanding = 0;
      shutting = false;
      draining = false;
      next_cid = 1;
      last_stats = Unix.gettimeofday ();
      snapshot_pending = false;
    }
  in
  Option.iter
    (fun fd ->
      Unix.set_nonblock fd;
      add_conn t fd ~peer:"supervisor")
    link;
  (* A sharded work side forks here, before any domain exists; its
     children close what they inherit of the above. *)
  let w = make_work t in
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let restore =
    match link with
    | Some _ -> fun () -> Sys.set_signal Sys.sigpipe old_pipe
    | None ->
        (* The handler also writes the self-pipe so a signal that lands
           just before an idle (infinite-timeout) select still wakes the
           loop. *)
        let on_signal _ =
          Atomic.set t.interrupted true;
          wake t
        in
        let old_int = Sys.signal Sys.sigint (Sys.Signal_handle on_signal) in
        let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle on_signal) in
        fun () ->
          (try Sys.remove cfg.socket_path with Sys_error _ -> ());
          Sys.set_signal Sys.sigint old_int;
          Sys.set_signal Sys.sigterm old_term;
          Sys.set_signal Sys.sigpipe old_pipe
  in
  on_ready ();
  let final = ref (Jsonx.Obj []) in
  Fun.protect
    ~finally:(fun () ->
      close_listeners t;
      final := stats_json t (w.stop ());
      write_stats_file t !final;
      List.iter (drop_conn t) t.conns;
      close_quiet t.wake_r;
      close_quiet t.wake_w;
      restore ())
    (fun () -> loop t w);
  !final

let serve ?on_ready cfg make_work = run_front ?on_ready cfg make_work

(* --- the in-process work side ------------------------------------------ *)

let local ~exec cfg t =
  let graph = G.create exec in
  G.set_node_cap graph cfg.node_cap;
  let lock = Mutex.create () and completions = ref [] in
  let sections () =
    Telemetry.pool_sections
      (Vp_exec.Progress.snapshot exec.Vp_exec.Context.progress)
  in
  G.start_workers graph;
  {
    dispatch =
      (fun r spec (s : Protocol.submit) ->
        List.iter
          (fun artifact ->
            let node = Spec.declare_artifact graph spec artifact in
            G.on_complete graph node (fun result ->
                Mutex.protect lock (fun () ->
                    completions := (r, artifact, result) :: !completions);
                wake t))
          s.experiments);
    step =
      (fun _ ->
        let taken =
          Mutex.protect lock (fun () ->
              let cs = !completions in
              completions := [];
              cs)
        in
        List.iter
          (fun (r, artifact, result) ->
            match result with
            | Ok data -> deliver t r (Protocol.result_body ~artifact ~data)
            | Error msg ->
                fail t r
                  (Protocol.reject "job_failed" "%s (artifact %s)" msg artifact))
          (List.rev taken));
    fds = (fun () -> ([], []));
    stats = (fun k -> k (sections ()));
    idle_timeout = -1.0;
    wind_down = (fun () -> true);
    stop =
      (fun () ->
        G.stop_workers graph;
        sections ());
  }

let run ?on_ready ~exec cfg = run_front ?on_ready cfg (local ~exec cfg)

let run_worker ?on_ready ~exec cfg fd =
  let cfg =
    {
      cfg with
      max_pending = max_int / 2;
      client_quota = max_int / 2;
      default_timeout_s = 0.0;
      stats_file = None;
    }
  in
  run_front ?on_ready ~link:fd cfg (local ~exec cfg)
