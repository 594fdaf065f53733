type t = {
  jobs : int;
  store : Store.t option;
  progress : Progress.t;
}

exception Job_failed of { key : string; label : string; message : string }

let () =
  Printexc.register_printer (function
    | Job_failed { key; label; message } ->
        Some (Printf.sprintf "job %s (key %s) failed: %s" label key message)
    | _ -> None)

let create ?(jobs = 1) ?store ?progress () =
  let progress =
    match progress with Some p -> p | None -> Progress.silent ()
  in
  { jobs; store; progress }

let sequential = create ()

(* A cached job resolves entirely inside the worker, so store I/O
   parallelizes along with the computation. *)
let with_store t (spec : 'a Job.spec) : 'a Job.spec =
  match t.store with
  | None -> spec
  | Some store ->
      {
        spec with
        run =
          (fun ctx ->
            let lookup : 'a Store.lookup = Store.find store ~key:spec.key in
            match lookup with
            | Store.Hit v ->
                Progress.cache_hit t.progress;
                v
            | Store.Miss | Store.Evicted ->
                if lookup = Store.Evicted then
                  Progress.corrupt_evicted t.progress;
                Progress.cache_miss t.progress;
                let v = spec.run ctx in
                Store.put store ~key:spec.key v;
                v);
      }

let map t specs =
  let specs = List.map (with_store t) specs in
  let outcomes = Pool.run ~progress:t.progress ~jobs:t.jobs specs in
  Progress.finish t.progress;
  outcomes

let map_exn t specs =
  let outcomes = map t specs in
  List.map2
    (fun (spec : _ Job.spec) outcome ->
      match (outcome : _ Job.outcome) with
      | Job.Done v -> v
      | Job.Failed message ->
          raise (Job_failed { key = spec.key; label = spec.label; message }))
    specs outcomes
