(** Non-blocking framed-connection plumbing, shared by the serve loop's
    client connections and the supervisor's shard links: an incremental
    {!Protocol.Decoder} on the read side, a queue of encoded frames with a
    partial-write offset on the write side. The owner runs the select loop
    and decides what a frame or a closed peer means; this module only
    moves bytes. *)

type t

val create : ?max_frame:int -> Unix.file_descr -> t
(** Wrap an already-nonblocking descriptor. *)

val fd : t -> Unix.file_descr
val closed : t -> bool

val close : t -> unit
(** Close the descriptor (once); subsequent sends and steps are no-ops. *)

val send : t -> Jsonx.t -> unit
(** Enqueue one frame for {!write_step}, encoded by {!Protocol.encode}.
    No-op when closed. *)

val send_frame : t -> string -> unit
(** Enqueue bytes already framed by {!Protocol}. No-op when closed. *)

val pending_out : t -> bool
(** Frames (or a partial frame) are waiting to be written. *)

val read_step :
  t ->
  on_frame:(string -> unit) ->
  [ `Ok | `Eof | `Closed | `Frame_error of string | `Io_error ]
(** Drain readable bytes, delivering each complete frame payload to
    [on_frame] (which may {!close} the connection — the loop stops and
    reports [`Closed]). [`Ok] means the socket would block; the caller
    owns the close on [`Eof] / [`Frame_error] / [`Io_error], e.g. to
    flush a diagnostic frame first. Reads go through one 64 KiB buffer
    per domain, reused across calls and connections. *)

val write_step : t -> [ `Ok | `Io_error ]
(** Flush as much of the out-queue as the socket accepts. *)
