(* Blocking client for the serve protocol. One connection can pipeline
   many requests: every response frame carries its request id, so the
   client keeps a pending table and routes interleaved frames to the
   right request's state. [await] reads frames (dispatching events for
   other pending requests along the way) until its own request settles —
   which is what lets the load generator keep hundreds of requests in
   flight over a handful of connections. *)

type state = {
  artifacts : string list;  (* request order, for reassembly *)
  mutable results : (string * string) list;  (* arrival order, reversed *)
  mutable error : (string * string) option;  (* code, message *)
  mutable wall_s : float;
  mutable stats : Jsonx.t option;
  mutable queue_depth : int;
  mutable fin : bool;
}

type t = {
  fd : Unix.file_descr;
  dec : Protocol.Decoder.t;
  pending : (string, state) Hashtbl.t;
  mutable next_id : int;
  tag : string;  (* per-connection id prefix *)
  mutable closed : bool;
}

let conn_seq = Atomic.make 0

let connect_fd fd =
  {
    fd;
    dec = Protocol.Decoder.create ();
    pending = Hashtbl.create 16;
    next_id = 0;
    tag =
      Printf.sprintf "c%d-%d" (Unix.getpid ()) (Atomic.fetch_and_add conn_seq 1);
    closed = false;
  }

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  connect_fd fd

let connect_tcp ~host ~port =
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
  in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (addr, port))
   with e ->
     Unix.close fd;
     raise e);
  connect_fd fd

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error (_, _, _) -> ()
  end

let fresh_id t =
  let n = t.next_id in
  t.next_id <- n + 1;
  Printf.sprintf "%s-%d" t.tag n

let state_of t id =
  match Hashtbl.find_opt t.pending id with
  | Some s -> s
  | None ->
      (* server-initiated or unknown id: track it so its frames are not
         mistaken for protocol errors *)
      let s =
        {
          artifacts = [];
          results = [];
          error = None;
          wall_s = 0.0;
          stats = None;
          queue_depth = 0;
          fin = false;
        }
      in
      Hashtbl.replace t.pending id s;
      s

let dispatch t payload =
  match Jsonx.parse payload with
  | Error msg -> failwith ("serve client: bad frame from server: " ^ msg)
  | Ok json -> (
      let id = Option.value ~default:"" (Jsonx.string_member "id" json) in
      let s = state_of t id in
      match Jsonx.string_member "event" json with
      | Some "accepted" ->
          s.queue_depth <-
            Option.value ~default:0 (Jsonx.int_member "queue_depth" json)
      | Some "result" ->
          let artifact =
            Option.value ~default:"" (Jsonx.string_member "artifact" json)
          in
          let data =
            Option.value ~default:"" (Jsonx.string_member "data" json)
          in
          s.results <- (artifact, data) :: s.results
      | Some "done" ->
          s.wall_s <-
            Option.value ~default:0.0 (Jsonx.float_member "wall_s" json);
          s.fin <- true
      | Some "error" ->
          let code =
            Option.value ~default:"error" (Jsonx.string_member "code" json)
          in
          let message =
            Option.value ~default:"" (Jsonx.string_member "message" json)
          in
          s.error <- Some (code, message);
          s.fin <- true
      | Some "stats" ->
          s.stats <- Jsonx.member "stats" json;
          s.fin <- true
      | Some ("pong" | "shutting_down") -> s.fin <- true
      | Some _ | None -> ())

let read_one t =
  match Protocol.read_frame t.dec t.fd with
  | Some payload -> dispatch t payload
  | None -> failwith "serve client: server closed the connection"

(* Reassemble results into the request's artifact order. A sharded
   daemon interleaves its shards' streams as they complete; request order
   is what makes the concatenated document byte-identical to the direct
   CLI run. Duplicate artifact names consume successive completions. *)
let in_request_order artifacts results =
  let remaining = ref results in
  let take artifact =
    let rec go acc = function
      | [] -> None
      | (a, d) :: rest when a = artifact ->
          remaining := List.rev_append acc rest;
          Some (a, d)
      | x :: rest -> go (x :: acc) rest
    in
    go [] !remaining
  in
  let ordered = List.filter_map take artifacts in
  ordered @ !remaining

type outcome = {
  results : (string * string) list;  (* request order *)
  error : (string * string) option;
  wall_s : float;
  queue_depth : int;
}

let outcome_of (s : state) =
  {
    results = in_request_order s.artifacts (List.rev s.results);
    error = s.error;
    wall_s = s.wall_s;
    queue_depth = s.queue_depth;
  }

let await t ~id =
  match Hashtbl.find_opt t.pending id with
  | None -> invalid_arg ("Vp_serve.Client.await: unknown request id " ^ id)
  | Some s ->
      while not s.fin do
        read_one t
      done;
      Hashtbl.remove t.pending id;
      outcome_of s

let submit_async t (spec : Protocol.submit) =
  let spec = if spec.id = "" then { spec with id = fresh_id t } else spec in
  Hashtbl.replace t.pending spec.id
    {
      artifacts = spec.experiments;
      results = [];
      error = None;
      wall_s = 0.0;
      stats = None;
      queue_depth = 0;
      fin = false;
    };
  Protocol.write_frame t.fd (Jsonx.to_string (Protocol.json_of_submit spec));
  spec.id

let submit t spec = await t ~id:(submit_async t spec)

let simple_op t op =
  let id = fresh_id t in
  Hashtbl.replace t.pending id
    {
      artifacts = [];
      results = [];
      error = None;
      wall_s = 0.0;
      stats = None;
      queue_depth = 0;
      fin = false;
    };
  Protocol.write_frame t.fd
    (Jsonx.to_string
       (Jsonx.Obj [ ("op", Jsonx.Str op); ("id", Jsonx.Str id) ]));
  id

let stats t =
  let id = simple_op t "stats" in
  let o = Hashtbl.find t.pending id in
  while not o.fin do
    read_one t
  done;
  Hashtbl.remove t.pending id;
  match o.stats with
  | Some j -> j
  | None -> failwith "serve client: stats response carried no stats object"

let ping t = ignore (await t ~id:(simple_op t "ping"))

let shutdown t = ignore (await t ~id:(simple_op t "shutdown"))

(* Convenience: a submit spec with CLI-equivalent defaults. *)
let submit_spec ?(id = "") ?(experiments = []) ?(benchmarks = [])
    ?(width = 4) ?(seed = 42) ?(threshold = 0.65) ?(csv = false)
    ?(overrides = []) ?(sweeps = []) ?timeout_s () : Protocol.submit =
  match Protocol.expand_experiments ~sweeps:(List.map fst sweeps) experiments
  with
  | Error name -> invalid_arg ("unknown experiment " ^ name)
  | Ok experiments ->
      {
        id;
        experiments;
        benchmarks;
        width;
        seed;
        threshold;
        csv;
        overrides;
        sweeps;
        timeout_s;
      }
