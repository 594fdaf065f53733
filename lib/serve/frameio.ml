(* Non-blocking framed-connection plumbing, shared by the serve loop's
   client connections and the supervisor's shard links: an incremental
   frame decoder on the read side, a queue of encoded frames with a
   partial-write offset on the write side. The owner runs the select loop
   and decides what a frame or a closed peer means; this module only
   moves bytes. *)

type t = {
  fd : Unix.file_descr;
  dec : Protocol.Decoder.t;
  outq : string Queue.t;  (* framed bytes; head may be partially written *)
  mutable out_off : int;
  mutable closed : bool;
}

let create ?max_frame fd =
  { fd; dec = Protocol.Decoder.create ?max_frame (); outq = Queue.create ();
    out_off = 0; closed = false }

let fd t = t.fd
let closed t = t.closed

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error (_, _, _) -> ()
  end

let send_frame t frame = if not t.closed then Queue.add frame t.outq
let send t json = if not t.closed then send_frame t (Protocol.encode json)

let pending_out t = not (Queue.is_empty t.outq)

(* One read buffer per domain, shared by all its connections: the decoder
   copies what it is fed before any frame is delivered, so the buffer is
   free again by the time [on_frame] runs. *)
let read_buf = Domain.DLS.new_key (fun () -> Bytes.create 65536)

(* Drain readable bytes, delivering each complete frame to [on_frame].
   [on_frame] may close the connection (e.g. a shutdown request); the
   loop stops as soon as it does. The caller owns the close on `Eof /
   `Frame_error / `Io_error — it may want to flush a diagnostic first. *)
let read_step t ~on_frame =
  let buf = Domain.DLS.get read_buf in
  let rec go () =
    if t.closed then `Closed
    else
      match Unix.read t.fd buf 0 (Bytes.length buf) with
      | 0 -> `Eof
      | n -> (
          Protocol.Decoder.feed t.dec buf n;
          let rec frames () =
            if t.closed then `Closed
            else
              match Protocol.Decoder.next t.dec with
              | Ok (Some payload) ->
                  on_frame payload;
                  frames ()
              | Ok None -> `More
              | Error msg -> `Frame_error msg
          in
          match frames () with
          | `More -> go ()
          | (`Closed | `Frame_error _) as r -> r)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          `Ok
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error (_, _, _) -> `Io_error
  in
  go ()

(* Flush as much of the out-queue as the socket accepts. *)
let write_step t =
  let rec go () =
    if t.closed then `Ok
    else
      match Queue.peek_opt t.outq with
      | None -> `Ok
      | Some chunk -> (
          let len = String.length chunk - t.out_off in
          match Unix.write_substring t.fd chunk t.out_off len with
          | n ->
              if n = len then begin
                ignore (Queue.pop t.outq);
                t.out_off <- 0;
                go ()
              end
              else begin
                t.out_off <- t.out_off + n;
                `Ok
              end
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
              `Ok
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          | exception Unix.Unix_error (_, _, _) -> `Io_error)
  in
  go ()
