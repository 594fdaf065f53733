(* The work queue: indices into the spec array, guarded by a mutex and a
   condition. All work is enqueued before the workers start, so [closed]
   only exists to wake blocked workers at the end; still, the queue is
   written for the general submit-while-running case. *)
module Wq = struct
  type t = {
    mutex : Mutex.t;
    nonempty : Condition.t;
    items : int Queue.t;
    mutable closed : bool;
  }

  let create () =
    {
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      items = Queue.create ();
      closed = false;
    }

  let push t i =
    Mutex.lock t.mutex;
    Queue.push i t.items;
    Condition.signal t.nonempty;
    Mutex.unlock t.mutex

  let close t =
    Mutex.lock t.mutex;
    t.closed <- true;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mutex

  (* [None] once the queue is closed and drained. *)
  let pop t =
    Mutex.lock t.mutex;
    let rec wait () =
      match Queue.take_opt t.items with
      | Some i -> Some i
      | None ->
          if t.closed then None
          else begin
            Condition.wait t.nonempty t.mutex;
            wait ()
          end
    in
    let r = wait () in
    Mutex.unlock t.mutex;
    r
end

let execute ~progress (spec : 'a Job.spec) : 'a Job.outcome =
  let ctx = Job.ctx_of ~key:spec.key in
  Progress.job_started progress ~label:spec.label;
  let t0 = Unix.gettimeofday () in
  let outcome =
    match spec.run ctx with
    | v -> Job.Done v
    | exception exn -> Job.Failed (Printexc.to_string exn)
  in
  let wall = Unix.gettimeofday () -. t0 in
  (match outcome with
  | Job.Done _ -> Progress.job_done progress ~wall
  | Job.Failed _ -> Progress.job_failed progress ~wall);
  outcome

let run ?progress ~jobs specs =
  let progress =
    match progress with Some p -> p | None -> Progress.silent ()
  in
  let specs = Array.of_list specs in
  let n = Array.length specs in
  Progress.add_queued progress n;
  let results = Array.make n None in
  let exec i = results.(i) <- Some (execute ~progress specs.(i)) in
  let workers = max 1 (min jobs n) in
  Progress.set_workers progress workers;
  if workers <= 1 then
    for i = 0 to n - 1 do
      exec i
    done
  else begin
    let q = Wq.create () in
    for i = 0 to n - 1 do
      Wq.push q i
    done;
    Wq.close q;
    let worker () =
      let rec loop () =
        match Wq.pop q with
        | Some i ->
            exec i;
            loop ()
        | None -> ()
      in
      loop ()
    in
    let domains = Array.init workers (fun _ -> Domain.spawn worker) in
    Array.iter Domain.join domains
  end;
  Array.to_list
    (Array.map
       (function
         | Some o -> o
         | None -> Job.Failed "internal error: job never executed")
       results)
