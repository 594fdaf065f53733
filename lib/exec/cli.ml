type opts = {
  jobs : int;
  no_cache : bool;
  no_spec_cache : bool;
  cache_dir : string;
  telemetry : string option;
}

let default =
  {
    jobs = 1;
    no_cache = false;
    no_spec_cache = false;
    cache_dir = Store.default_dir;
    telemetry = None;
  }

let usage =
  "--jobs N (worker domains; output is byte-identical for any N), \
   --no-cache (disable the on-disk result cache), --no-spec-cache (disable \
   the in-memory per-block artifact cache), --cache-dir DIR, \
   --telemetry FILE (JSON job/cache/utilization summary; \"-\" = stderr)"

let parse args =
  let rec go opts leftover = function
    | [] -> Ok (opts, List.rev leftover)
    | ("--jobs" | "-j") :: rest -> (
        match rest with
        | n :: rest -> (
            match int_of_string_opt n with
            | Some jobs when jobs >= 1 -> go { opts with jobs } leftover rest
            | _ -> Error (Printf.sprintf "--jobs: not a positive integer: %s" n))
        | [] -> Error "--jobs requires a value")
    | "--no-cache" :: rest -> go { opts with no_cache = true } leftover rest
    | "--no-spec-cache" :: rest ->
        go { opts with no_spec_cache = true } leftover rest
    | "--cache-dir" :: rest -> (
        match rest with
        | d :: rest -> go { opts with cache_dir = d } leftover rest
        | [] -> Error "--cache-dir requires a value")
    | "--telemetry" :: rest -> (
        match rest with
        | f :: rest -> go { opts with telemetry = Some f } leftover rest
        | [] -> Error "--telemetry requires a value")
    | arg :: rest -> go opts (arg :: leftover) rest
  in
  go default [] args

let context ?progress opts =
  let store =
    if opts.no_cache then None
    else
      (* Detect an unusable cache directory once, here, rather than letting
         every job rediscover it: [Store.create] raises on a path that is
         not (or cannot become) a directory, or when the executable cannot
         be digested to version the entries, and the write probe catches
         the read-only-directory case, where creation succeeds but every
         [Store.put] would fail one at a time. Either way the run proceeds
         without a cache after a single warning. *)
      match
        let s = Store.create ~dir:opts.cache_dir () in
        let probe =
          Filename.temp_file ~temp_dir:opts.cache_dir "vpexec" ".probe"
        in
        Sys.remove probe;
        s
      with
      | s -> Some s
      | exception Sys_error msg ->
          Printf.eprintf
            "warning: result cache disabled (cache dir %s unusable: %s)\n%!"
            opts.cache_dir msg;
          None
  in
  let progress =
    match progress with Some p -> p | None -> Progress.create ()
  in
  Context.create ~jobs:opts.jobs ?store ~progress ()

let emit_telemetry ?extra opts (exec : Context.t) =
  match opts.telemetry with
  | None -> ()
  | Some dest ->
      let json = Progress.json_summary ?extra exec.progress in
      if dest = "-" then Printf.eprintf "%s\n%!" json
      else
        let oc = open_out dest in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc (json ^ "\n"))
