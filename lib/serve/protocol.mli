(** The serve wire protocol, shared by daemon and clients.

    {b Framing.} Each message is one frame: the payload's byte length in
    ASCII decimal, one ['\n'], then exactly that many payload bytes — a
    compact JSON object. Length-prefixing (rather than newline-delimited
    JSON) lets result frames carry multi-kilobyte rendered tables with
    embedded newlines without any escaping subtleties on the read path,
    and makes oversized frames rejectable before buffering them.

    {b Requests} (client to server): [submit], [stats], [ping],
    [shutdown]. {b Responses} (server to client): [accepted], [result]
    (streamed, one per artifact: in request order from one process or
    shard, interleaved across shards as they complete), [done],
    [error], [stats], [pong], [shutting_down]. Every response carries the
    request's [id], so one connection can pipeline many requests and sort
    the interleaved responses. DESIGN.md ("Serve wire protocol") is the
    schema reference. *)

val default_max_frame : int
(** 4 MiB. *)

val frame : string -> string
(** [frame payload] is the on-wire encoding, built in one allocation of
    its final size. *)

val encode : Jsonx.t -> string
(** [encode json] is [frame (Jsonx.to_string json)], with the payload
    written into an encode buffer the calling domain reuses, so the frame
    is the one allocation. *)

val write_frame : Unix.file_descr -> string -> unit
(** Blocking full write of one frame. *)

(** Incremental frame decoder for the server's non-blocking sockets, and
    the one reader of frame headers: a header is one or more ASCII digits
    ([0x10], [+5], [-0] or [1_0] are malformed), at most [max_frame], with
    its newline within its first 21 bytes. *)
module Decoder : sig
  type t

  val create : ?max_frame:int -> unit -> t
  (** [max_frame] defaults to {!default_max_frame}. *)

  val feed : t -> bytes -> int -> unit

  val next : t -> (string option, string) result
  (** [Ok (Some payload)] — a whole frame was buffered; call again, more
      may follow. [Ok None] — need more bytes. [Error msg] — malformed or
      oversized; drop the connection. *)
end

val read_frame : Decoder.t -> Unix.file_descr -> string option
(** Blocking read of one frame's payload through the connection's
    decoder, which keeps any bytes read past the frame for the next call;
    [None] on clean EOF at a frame boundary. Raises [Failure] on a
    malformed header, a truncated frame or one exceeding the decoder's
    [max_frame]. *)

(** {1 Experiments} *)

val expand_experiments :
  ?sweeps:string list -> string list -> (string list, string) result
(** Expand ["all"] into {!Vliw_vp.Artifact.all_sequence}'s names and
    validate the rest against {!Vliw_vp.Artifact.registry} ([Error name]
    on an unknown one). The empty list means ["all"]. [sweeps] are the
    request-declared custom sweep names, each addressable as
    ["sweep:NAME"]. *)

(** {1 Requests} *)

type submit = {
  id : string;
  experiments : string list;  (** expanded, validated, request order *)
  benchmarks : string list;  (** validated names; [[]] = the full set *)
  width : int;
  seed : int;
  threshold : float;
  overrides : (string * Jsonx.t) list;
      (** machine-config overrides — the non-core keys of the request's
          ["config"] object. Shape-checked at parse time; the allowed keys
          and value types are validated at admission by {!Spec}, which
          rejects with code [bad_config]. *)
  sweeps : (string * (string * (string * Jsonx.t) list) list) list;
      (** custom sweeps declared by the request:
          [{"sweeps": {"NAME": [{"label": L, "config": {...}}, ...]}}].
          Each is addressable from [experiments] as ["sweep:NAME"]; the
          point configs take the same keys as ["config"] (core and
          override) and are validated at admission ([bad_sweep]). *)
  csv : bool;
  timeout_s : float option;
      (** [None] = the server default; zero or negative = no timeout *)
}

type request =
  | Submit of submit
  | Stats of string  (** payload: request id *)
  | Ping of string
  | Shutdown of string

type reject = { code : string; message : string }
(** Structured rejection — [code] is one of the machine-readable error
    codes listed in DESIGN.md ([bad_request], [bad_config], [bad_sweep],
    [unknown_experiment], [unknown_benchmark], [overloaded],
    [quota_exceeded], [timeout], [job_failed], [worker_lost],
    [shutting_down], [protocol]). *)

val reject : string -> ('a, unit, string, reject) format4 -> 'a

val request_of_json : Jsonx.t -> (request, string * reject) result
(** Parse and validate one request frame; errors carry the request id ([""]
    if absent) for the error frame. A submit field that is present must
    have its type — [experiments] and [benchmarks] lists of strings,
    [config] an object whose [width] and [seed] are integers and
    [threshold] a number, [format] ["ascii"] or ["csv"], [timeout_s] a
    finite number — or the reply is [bad_request] naming the field;
    absent fields take their defaults. Benchmark names are validated by
    the server, which owns the model list. *)

val json_of_submit : submit -> Jsonx.t

(** {1 Response frames} *)

val event : id:string -> event:string -> (string * Jsonx.t) list -> Jsonx.t

val accepted : id:string -> artifacts:string list -> queue_depth:int -> Jsonx.t

val result : id:string -> artifact:string -> data:string -> Jsonx.t
(** The tree form of a result frame. The work sides deliver results as
    {!body}s instead, which {!result_frame} encodes to the same bytes. *)

val done_ : id:string -> wall_s:float -> Jsonx.t

val error : id:string -> reject -> Jsonx.t

(** {1 Result frames, encoded once}

    A result frame's payload is the head [{"id":<id>,"event":"result",]
    followed by its {e body}, [ "artifact":<artifact>,"data":<data>} ].
    The body is encoded once; delivering it under another request id
    replaces only the head. *)

type body
(** The encoded body of a result frame. *)

val result_body : artifact:string -> data:string -> body

val split_result : string -> (string * body) option
(** [split_result payload] is [Some (id, body)] when [payload] starts
    exactly with [{"id":"<id>","event":"result",] and [<id>] is written
    without an escape; [None] for any other payload, which the caller
    parses. The body is not checked: this is for frames from a trusted
    peer (a shard), never for client bytes. *)

val result_frame : id:string -> body -> string
(** The framed result under [id], in one allocation of its final size:
    [result_frame ~id (result_body ~artifact ~data)] is
    [frame (Jsonx.to_string (result ~id ~artifact ~data))]. *)
