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
