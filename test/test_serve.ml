(* Tests for Vp_serve: the hand-rolled JSON codec, the frame decoder, the
   request validation, and the daemon end-to-end over a real Unix socket —
   byte-identity with the direct renderers, warm/dedup behaviour,
   admission control, timeouts and graceful shutdown. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

module J = Vp_serve.Jsonx
module P = Vp_serve.Protocol

let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "vp_serve_test_%d_%d.sock" (Unix.getpid ()) !n)

let par_jobs =
  match Option.bind (Sys.getenv_opt "VP_TEST_JOBS") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> 4

(* --- Jsonx --- *)

let test_jsonx_roundtrip () =
  let v =
    J.Obj
      [
        ("s", J.Str "he\"llo\n\t\\x");
        ("i", J.Int (-42));
        ("f", J.Float 1.5);
        ("b", J.Bool true);
        ("n", J.Null);
        ("l", J.List [ J.Int 1; J.Str "two"; J.Obj [ ("k", J.Bool false) ] ]);
      ]
  in
  match J.parse (J.to_string v) with
  | Error e -> Alcotest.fail e
  | Ok v' -> checks "roundtrip" (J.to_string v) (J.to_string v')

let test_jsonx_parse () =
  (match J.parse {| {"a": [1, 2.5, "xAy", null, true]} |} with
  | Error e -> Alcotest.fail e
  | Ok j -> (
      match J.list_member "a" j with
      | Some [ J.Int 1; J.Float f; J.Str s; J.Null; J.Bool true ] ->
          checkb "float" true (abs_float (f -. 2.5) < 1e-9);
          checks "unicode escape" "xAy" s
      | _ -> Alcotest.fail "unexpected structure"));
  checkb "trailing garbage rejected" true
    (Result.is_error (J.parse "{} junk"));
  checkb "bad literal rejected" true (Result.is_error (J.parse "trueish"));
  checkb "unterminated string rejected" true
    (Result.is_error (J.parse "\"abc"))

(* --- frame decoder --- *)

let test_decoder_split_frames () =
  (* two frames fed one byte at a time must come out intact and in order *)
  let wire = P.frame "hello" ^ P.frame "{\"x\":1}" in
  let dec = P.Decoder.create () in
  let got = ref [] in
  String.iter
    (fun c ->
      P.Decoder.feed dec (Bytes.make 1 c) 1;
      let rec drain () =
        match P.Decoder.next dec with
        | Ok (Some p) ->
            got := p :: !got;
            drain ()
        | Ok None -> ()
        | Error e -> Alcotest.fail e
      in
      drain ())
    wire;
  Alcotest.(check (list string)) "frames" [ "hello"; "{\"x\":1}" ] (List.rev !got)

let test_decoder_rejects_oversized () =
  let dec = P.Decoder.create ~max_frame:10 () in
  let wire = P.frame (String.make 100 'x') in
  P.Decoder.feed dec (Bytes.of_string wire) (String.length wire);
  checkb "oversized rejected" true (Result.is_error (P.Decoder.next dec))

let test_decoder_rejects_garbage () =
  let dec = P.Decoder.create () in
  let wire = "nonsense\n" in
  P.Decoder.feed dec (Bytes.of_string wire) (String.length wire);
  checkb "garbage rejected" true (Result.is_error (P.Decoder.next dec))

(* --- request validation --- *)

let parse_req s =
  match J.parse s with
  | Error e -> Alcotest.fail e
  | Ok j -> P.request_of_json j

let test_request_validation () =
  (match parse_req {|{"op":"submit","id":"r1","experiments":["table2"]}|} with
  | Ok (P.Submit s) ->
      checks "id" "r1" s.id;
      Alcotest.(check (list string)) "experiments" [ "table2" ] s.experiments;
      checki "default width" 4 s.width;
      checki "default seed" 42 s.seed
  | _ -> Alcotest.fail "expected submit");
  (match parse_req {|{"op":"submit","id":"r2"}|} with
  | Ok (P.Submit s) ->
      Alcotest.(check (list string)) "empty = all" P.all_sequence s.experiments
  | _ -> Alcotest.fail "expected submit");
  (match parse_req {|{"op":"submit","id":"r3","experiments":["bogus"]}|} with
  | Error (id, r) ->
      checks "id" "r3" id;
      checks "code" "unknown_experiment" r.code
  | Ok _ -> Alcotest.fail "bogus experiment accepted");
  (match
     parse_req {|{"op":"submit","id":"r4","config":{"width":9999}}|}
   with
  | Error (_, r) -> checks "code" "bad_request" r.code
  | Ok _ -> Alcotest.fail "width 9999 accepted");
  (match parse_req {|{"id":"r5"}|} with
  | Error (_, r) -> checks "code" "bad_request" r.code
  | Ok _ -> Alcotest.fail "missing op accepted");
  match parse_req {|{"op":"frobnicate","id":"r6"}|} with
  | Error (_, r) -> checks "code" "bad_request" r.code
  | Ok _ -> Alcotest.fail "unknown op accepted"

let test_sweep_and_override_validation () =
  (* sweep names gate the sweep: experiments; shape errors are bad_sweep *)
  (match parse_req {|{"op":"submit","id":"s1","experiments":["sweep:x"]}|} with
  | Error (_, r) -> checks "undeclared sweep" "unknown_experiment" r.code
  | Ok _ -> Alcotest.fail "sweep:x accepted without a sweeps entry");
  (match
     parse_req
       {|{"op":"submit","id":"s2","experiments":["sweep:x"],"sweeps":{"x":[]}}|}
   with
  | Error (_, r) -> checks "empty points" "bad_sweep" r.code
  | Ok _ -> Alcotest.fail "empty sweep accepted");
  (match
     parse_req
       {|{"op":"submit","id":"s3","experiments":["sweep:x"],
          "sweeps":{"x":[{"label":"a"},{"label":"a"}]}}|}
   with
  | Error (_, r) -> checks "duplicate label" "bad_sweep" r.code
  | Ok _ -> Alcotest.fail "duplicate label accepted");
  (match
     parse_req
       {|{"op":"submit","id":"s4","experiments":["sweep:x"],
          "sweeps":{"x":[{"label":"a","config":42}]}}|}
   with
  | Error (_, r) -> checks "non-object config" "bad_sweep" r.code
  | Ok _ -> Alcotest.fail "non-object point config accepted");
  (* a well-formed sweep parses, with its points carried verbatim *)
  (match
     parse_req
       {|{"op":"submit","id":"s5","experiments":["sweep:x"],
          "sweeps":{"x":[{"label":"narrow","config":{"width":2}},
                         {"label":"wide","config":{"width":8}}]}}|}
   with
  | Ok (P.Submit s) -> (
      Alcotest.(check (list string)) "experiments" [ "sweep:x" ] s.experiments;
      match s.sweeps with
      | [ ("x", [ ("narrow", [ ("width", J.Int 2) ]);
                  ("wide", [ ("width", J.Int 8) ]) ]) ] -> ()
      | _ -> Alcotest.fail "sweep points not carried through")
  | Ok _ -> Alcotest.fail "expected submit"
  | Error (_, r) -> Alcotest.failf "valid sweep rejected: %s" r.message);
  (* non-core config keys ride along as overrides *)
  match
    parse_req
      {|{"op":"submit","id":"s6","experiments":["table2"],
         "config":{"width":8,"branch_penalty":3}}|}
  with
  | Ok (P.Submit s) -> (
      checki "core width" 8 s.width;
      match s.overrides with
      | [ ("branch_penalty", J.Int 3) ] -> ()
      | _ -> Alcotest.fail "override not captured")
  | Ok _ -> Alcotest.fail "expected submit"
  | Error (_, r) -> Alcotest.failf "override rejected: %s" r.message

(* --- end-to-end over a real daemon --- *)

(* Start a daemon in its own domain, run [f client], shut down cleanly.
   Returns [f]'s result after the daemon has exited. *)
let with_server ?(cfg = fun c -> c) ?(jobs = par_jobs) ?store f =
  let socket = fresh_socket () in
  let config = cfg (Vp_serve.Server.default_config ~socket ()) in
  let ready = Atomic.make false in
  let exec = Vp_exec.Context.create ~jobs ?store () in
  let srv =
    Domain.spawn (fun () ->
        Vp_serve.Server.run
          ~on_ready:(fun () -> Atomic.set ready true)
          ~exec config)
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Atomic.get ready)) && Unix.gettimeofday () < deadline do
    Domain.cpu_relax ()
  done;
  if not (Atomic.get ready) then Alcotest.fail "daemon never became ready";
  let client = Vp_serve.Client.connect socket in
  let result =
    Fun.protect
      ~finally:(fun () ->
        (try Vp_serve.Client.shutdown client with _ -> ());
        Vp_serve.Client.close client;
        ignore (Domain.join srv))
      (fun () -> f client)
  in
  checkb "socket removed after shutdown" false (Sys.file_exists socket);
  result

let compress = [ Vp_workload.Spec_model.compress ]

(* The exact bytes the daemon must stream for table2 over the compress
   model: the direct renderer plus the all-document separator newline. *)
let direct_table2 =
  lazy
    (Vliw_vp.Experiments.render_table2
       (Vliw_vp.Experiments.run_all ~config:Vliw_vp.Config.default compress)
    ^ "\n")

let table2_spec () =
  Vp_serve.Client.submit_spec ~experiments:[ "table2" ]
    ~benchmarks:[ "compress" ] ()

let test_e2e_byte_identity () =
  with_server (fun client ->
      let o = Vp_serve.Client.submit client (table2_spec ()) in
      (match o.error with
      | Some (code, m) -> Alcotest.fail (code ^ ": " ^ m)
      | None -> ());
      match o.results with
      | [ ("table2", data) ] -> checks "bytes" (Lazy.force direct_table2) data
      | r -> Alcotest.failf "expected one table2 result, got %d" (List.length r))

(* The served comparison artifact is the direct comparison table plus the
   separator newline, from a cold store and from the warm store it left,
   with the cold and warm daemons at either worker count. *)
let test_e2e_comparison_identity () =
  let models = [ Vp_workload.Spec_model.compress; Vp_workload.Spec_model.li ] in
  let direct =
    Vliw_vp.Experiments.render_comparison
      (Vliw_vp.Experiments.comparison ~config:Vliw_vp.Config.default models)
    ^ "\n"
  in
  let spec () =
    Vp_serve.Client.submit_spec ~experiments:[ "comparison" ]
      ~benchmarks:[ "compress"; "li" ] ()
  in
  let served ~jobs ~store label =
    with_server ~jobs ~store (fun client ->
        let o = Vp_serve.Client.submit client (spec ()) in
        match (o.error, o.results) with
        | Some (code, m), _ -> Alcotest.failf "%s: %s: %s" label code m
        | None, [ ("comparison", data) ] -> checks label direct data
        | None, r ->
            Alcotest.failf "%s: expected one comparison result, got %d" label
              (List.length r))
  in
  List.iteri
    (fun i (cold_jobs, warm_jobs) ->
      let store =
        Vp_exec.Store.create
          ~dir:
            (Filename.concat
               (Filename.get_temp_dir_name ())
               (Printf.sprintf "vp_serve_cmp_%d_%d" (Unix.getpid ()) i))
          ()
      in
      served ~jobs:cold_jobs ~store
        (Printf.sprintf "cold store, jobs=%d" cold_jobs);
      served ~jobs:warm_jobs ~store
        (Printf.sprintf "warm store, jobs=%d" warm_jobs))
    [ (1, par_jobs); (par_jobs, 1) ]

let graph_jobs client =
  let stats = Vp_serve.Client.stats client in
  match J.member "graph" stats with
  | Some g -> Option.value ~default:(-1) (J.int_member "jobs_queued" g)
  | None -> Alcotest.fail "stats without graph section"

let test_e2e_warm_resubmit_runs_nothing () =
  with_server (fun client ->
      let o1 = Vp_serve.Client.submit client (table2_spec ()) in
      checkb "first ok" true (o1.error = None);
      let jobs1 = graph_jobs client in
      checkb "first run executed jobs" true (jobs1 > 0);
      let o2 = Vp_serve.Client.submit client (table2_spec ()) in
      checkb "second ok" true (o2.error = None);
      checki "warm resubmit adds zero jobs" jobs1 (graph_jobs client);
      checkb "identical bytes" true (o1.results = o2.results))

let test_e2e_overlap_identical_streams () =
  (* Two overlapping cold submits of the same request, pipelined so both
     are in flight together; both must get the full byte-identical stream
     and the payload must not run twice (the warm-resubmit test pins the
     job counters; here the point is the concurrent streams agree). *)
  with_server (fun client ->
      let id1 = Vp_serve.Client.submit_async client (table2_spec ()) in
      let id2 = Vp_serve.Client.submit_async client (table2_spec ()) in
      let o1 = Vp_serve.Client.await client ~id:id1 in
      let o2 = Vp_serve.Client.await client ~id:id2 in
      checkb "both ok" true (o1.error = None && o2.error = None);
      checkb "identical" true (o1.results = o2.results);
      checks "against direct render" (Lazy.force direct_table2)
        (String.concat "" (List.map snd o1.results)))

let test_e2e_admission_overloaded () =
  with_server
    ~cfg:(fun c -> { c with Vp_serve.Server.max_pending = 0 })
    (fun client ->
      let o = Vp_serve.Client.submit client (table2_spec ()) in
      match o.error with
      | Some ("overloaded", _) -> ()
      | Some (code, _) -> Alcotest.failf "expected overloaded, got %s" code
      | None -> Alcotest.fail "admitted despite max_pending=0")

let test_e2e_admission_quota () =
  with_server
    ~cfg:(fun c -> { c with Vp_serve.Server.client_quota = 0 })
    (fun client ->
      let o = Vp_serve.Client.submit client (table2_spec ()) in
      match o.error with
      | Some ("quota_exceeded", _) -> ()
      | Some (code, _) -> Alcotest.failf "expected quota_exceeded, got %s" code
      | None -> Alcotest.fail "admitted despite client_quota=0")

let test_e2e_unknown_benchmark () =
  with_server (fun client ->
      let spec =
        Vp_serve.Client.submit_spec ~experiments:[ "table2" ]
          ~benchmarks:[ "nonesuch" ] ()
      in
      let o = Vp_serve.Client.submit client spec in
      match o.error with
      | Some ("unknown_benchmark", _) -> ()
      | Some (code, _) ->
          Alcotest.failf "expected unknown_benchmark, got %s" code
      | None -> Alcotest.fail "unknown benchmark accepted")

let test_e2e_timeout () =
  with_server (fun client ->
      (* a cold full-size request with a microscopic budget: the timeout
         fires at the next serve-loop tick, long before the work is done *)
      let spec =
        Vp_serve.Client.submit_spec ~experiments:[ "table2" ]
          ~benchmarks:[ "compress" ] ~seed:987 ~timeout_s:0.01 ()
      in
      let t0 = Unix.gettimeofday () in
      let o = Vp_serve.Client.submit client spec in
      let elapsed = Unix.gettimeofday () -. t0 in
      (match o.error with
      | Some ("timeout", _) -> ()
      | Some (code, m) -> Alcotest.failf "expected timeout, got %s: %s" code m
      | None -> Alcotest.fail "no timeout reported");
      checkb "timeout reported promptly" true (elapsed < 5.0))

let test_e2e_stats_and_ping () =
  with_server (fun client ->
      Vp_serve.Client.ping client;
      ignore (Vp_serve.Client.submit client (table2_spec ()));
      let stats = Vp_serve.Client.stats client in
      let member path = J.member path stats in
      List.iter
        (fun k -> checkb k true (member k <> None))
        [ "uptime_s"; "requests"; "latency"; "clients"; "graph"; "cache" ];
      let requests = Option.get (member "requests") in
      checki "completed" 1
        (Option.value ~default:(-1) (J.int_member "completed" requests));
      let latency = Option.get (member "latency") in
      checki "latency count" 1
        (Option.value ~default:(-1) (J.int_member "count" latency)))

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_e2e_overrides_and_custom_sweep () =
  with_server (fun client ->
      (* machine-config overrides: accepted, deterministic, and actually
         applied — the comparison table's cache costs depend on the icache
         trace length, so different lengths must render different bytes *)
      let with_trace n =
        Vp_serve.Client.submit_spec ~experiments:[ "comparison" ]
          ~benchmarks:[ "compress" ]
          ~overrides:[ ("trace_length", J.Int n) ]
          ()
      in
      let a1 = Vp_serve.Client.submit client (with_trace 1000) in
      let a2 = Vp_serve.Client.submit client (with_trace 1000) in
      let b = Vp_serve.Client.submit client (with_trace 3000) in
      checkb "overrides accepted" true
        (a1.error = None && a2.error = None && b.error = None);
      checkb "override deterministic" true (a1.results = a2.results);
      checkb "override applied" true (a1.results <> b.results);
      (* structured rejections: unknown key and out-of-range value *)
      let expect_bad overrides =
        let spec =
          Vp_serve.Client.submit_spec ~experiments:[ "table2" ]
            ~benchmarks:[ "compress" ] ~overrides ()
        in
        match (Vp_serve.Client.submit client spec).error with
        | Some ("bad_config", _) -> ()
        | Some (code, m) -> Alcotest.failf "expected bad_config, got %s: %s" code m
        | None -> Alcotest.fail "bad override accepted"
      in
      expect_bad [ ("frobnicate", J.Int 1) ];
      expect_bad [ ("miss_penalty", J.Int (-5)) ];
      (* a custom sweep renders one ablation table per model with the
         requested point labels *)
      let sweeps =
        [
          ( "trace",
            [
              ("short", [ ("trace_length", J.Int 1000) ]);
              ("long", [ ("trace_length", J.Int 3000) ]);
            ] );
        ]
      in
      let spec =
        Vp_serve.Client.submit_spec ~experiments:[ "sweep:trace" ]
          ~benchmarks:[ "compress" ] ~sweeps ()
      in
      let o = Vp_serve.Client.submit client spec in
      (match o.error with
      | Some (code, m) -> Alcotest.failf "sweep failed %s: %s" code m
      | None -> ());
      match o.results with
      | [ ("sweep:trace", data) ] ->
          checkb "short point rendered" true (contains ~sub:"short" data);
          checkb "long point rendered" true (contains ~sub:"long" data)
      | r -> Alcotest.failf "expected one sweep result, got %d" (List.length r))

let test_e2e_sweep_point_validation () =
  with_server (fun client ->
      let spec =
        Vp_serve.Client.submit_spec ~experiments:[ "sweep:bad" ]
          ~benchmarks:[ "compress" ]
          ~sweeps:[ ("bad", [ ("p", [ ("frobnicate", J.Int 1) ]) ]) ]
          ()
      in
      match (Vp_serve.Client.submit client spec).error with
      | Some ("bad_sweep", m) ->
          checkb "names the sweep and point" true
            (contains ~sub:"bad" m && contains ~sub:"p" m)
      | Some (code, _) -> Alcotest.failf "expected bad_sweep, got %s" code
      | None -> Alcotest.fail "invalid sweep point accepted")

let test_e2e_node_cache_eviction () =
  (* a tiny node cap forces LRU evictions between two identical submits;
     the resubmit recomputes (or re-reads the store) and must still be
     byte-identical, with the evictions visible in telemetry *)
  with_server
    ~cfg:(fun c -> { c with Vp_serve.Server.node_cap = Some 2 })
    (fun client ->
      let o1 = Vp_serve.Client.submit client (table2_spec ()) in
      let o2 = Vp_serve.Client.submit client (table2_spec ()) in
      checkb "both ok" true (o1.error = None && o2.error = None);
      checkb "identical across evictions" true (o1.results = o2.results);
      let stats = Vp_serve.Client.stats client in
      let g = Option.get (J.member "graph" stats) in
      checkb "evictions reported" true
        (Option.value ~default:0 (J.int_member "node_evictions" g) > 0))

(* --- the sharded daemon (subprocess): [Unix.fork] refuses to run in a
   process with domains, so these tests drive the real binary --- *)

let bin = "../bin/vliw_vp.exe"

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "vp_serve_shard_%d_%d" (Unix.getpid ()) !n)

let with_sharded ?(workers = 2) f =
  let socket = fresh_socket () in
  let cache = fresh_dir () in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process bin
      [|
        bin; "serve"; "--workers"; string_of_int workers; "--socket"; socket;
        "--cache-dir"; cache; "-j"; "1"; "--timeout"; "120";
      |]
      Unix.stdin null null
  in
  Unix.close null;
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec wait_ready () =
    let probe = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect probe (Unix.ADDR_UNIX socket) with
    | () -> Unix.close probe
    | exception Unix.Unix_error (_, _, _) ->
        Unix.close probe;
        if Unix.gettimeofday () > deadline then
          Alcotest.fail "sharded daemon never became ready";
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> Alcotest.fail "sharded daemon exited during startup");
        Unix.sleepf 0.05;
        wait_ready ()
  in
  wait_ready ();
  let client = Vp_serve.Client.connect socket in
  Fun.protect
    ~finally:(fun () ->
      (try Vp_serve.Client.shutdown client with _ -> ());
      Vp_serve.Client.close client;
      let deadline = Unix.gettimeofday () +. 20.0 in
      let rec reap () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ ->
            if Unix.gettimeofday () > deadline then begin
              (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
              ignore (Unix.waitpid [] pid)
            end
            else begin
              Unix.sleepf 0.05;
              reap ()
            end
        | _ -> ()
      in
      reap ())
    (fun () -> f client)

let test_sharded_byte_identity () =
  with_sharded ~workers:2 (fun client ->
      let o = Vp_serve.Client.submit client (table2_spec ()) in
      (match o.error with
      | Some (code, m) -> Alcotest.fail (code ^ ": " ^ m)
      | None -> ());
      (match o.results with
      | [ ("table2", data) ] ->
          checks "cold bytes" (Lazy.force direct_table2) data
      | r -> Alcotest.failf "expected one table2 result, got %d" (List.length r));
      (* the warm wave dedups onto the shard's resident nodes *)
      let o2 = Vp_serve.Client.submit client (table2_spec ()) in
      checkb "warm identical" true (o.results = o2.results))

(* The supervisor's stats carry a workers section; pick a shard that holds
   in-flight sub-work right now. *)
let busy_shard_pid client =
  let stats = Vp_serve.Client.stats client in
  match J.member "workers" stats with
  | Some (J.List ws) ->
      List.find_map
        (fun w ->
          match (J.int_member "pid" w, J.int_member "inflight" w) with
          | Some pid, Some n when n > 0 -> Some pid
          | _ -> None)
        ws
  | _ -> Alcotest.fail "sharded stats without workers section"

(* Poll [busy_shard_pid] until a shard reports in-flight work or the
   deadline passes. *)
let poll_busy_shard client ~seconds =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec go () =
    match busy_shard_pid client with
    | Some pid -> Some pid
    | None when Unix.gettimeofday () > deadline -> None
    | None ->
        Unix.sleepf 0.005;
        go ()
  in
  go ()

let test_sharded_worker_lost () =
  with_sharded ~workers:2 (fun client ->
      (* The kill must land while the victim shard holds sub-work: submit a
         cold request for every artifact of all eight benchmarks (fresh
         seed each attempt), so both shards stay busy for a while; poll the
         supervisor's stats from the submit on — the serve loops answer
         while their domains compute — until a shard reports in-flight
         work, and SIGKILL it. *)
      let rec attempt n =
        if n > 3 then Alcotest.fail "never caught a shard mid-request"
        else
          let spec =
            Vp_serve.Client.submit_spec ~experiments:[ "all" ]
              ~seed:(9100 + n) ()
          in
          let id = Vp_serve.Client.submit_async client spec in
          match poll_busy_shard client ~seconds:5.0 with
          | None -> (
              (* request may already be done; drain it and retry colder *)
              ignore (Vp_serve.Client.await client ~id);
              attempt (n + 1))
          | Some shard_pid -> (
              Unix.kill shard_pid Sys.sigkill;
              let o = Vp_serve.Client.await client ~id in
              match o.error with
              | Some ("worker_lost", m) ->
                  checkb "error names the shard" true (contains ~sub:"pid" m);
                  spec
              | Some (code, m) ->
                  Alcotest.failf "expected worker_lost, got %s: %s" code m
              | None ->
                  (* the victim finished its share before the kill landed *)
                  attempt (n + 1))
      in
      let spec = attempt 0 in
      (* the slot was re-forked: the same request resubmitted succeeds, and
         byte-identically to the in-process reference daemon *)
      let o = Vp_serve.Client.submit client spec in
      (match o.error with
      | Some (code, m) -> Alcotest.failf "resubmit failed %s: %s" code m
      | None -> ());
      let reference =
        with_server (fun c -> Vp_serve.Client.submit c spec)
      in
      checkb "resubmit byte-identical to in-process daemon" true
        (o.results = reference.results))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "vp_serve"
    [
      ( "jsonx",
        [ tc "roundtrip" test_jsonx_roundtrip; tc "parse" test_jsonx_parse ] );
      ( "decoder",
        [
          tc "split frames" test_decoder_split_frames;
          tc "rejects oversized" test_decoder_rejects_oversized;
          tc "rejects garbage" test_decoder_rejects_garbage;
        ] );
      ( "protocol",
        [
          tc "request validation" test_request_validation;
          tc "sweep and override validation"
            test_sweep_and_override_validation;
        ] );
      ( "daemon",
        [
          tc "byte identity" test_e2e_byte_identity;
          tc "comparison identity" test_e2e_comparison_identity;
          tc "warm resubmit runs nothing" test_e2e_warm_resubmit_runs_nothing;
          tc "overlap identical streams" test_e2e_overlap_identical_streams;
          tc "admission: overloaded" test_e2e_admission_overloaded;
          tc "admission: quota" test_e2e_admission_quota;
          tc "unknown benchmark" test_e2e_unknown_benchmark;
          tc "timeout" test_e2e_timeout;
          tc "stats and ping" test_e2e_stats_and_ping;
          tc "overrides and custom sweep" test_e2e_overrides_and_custom_sweep;
          tc "sweep point validation" test_e2e_sweep_point_validation;
          tc "node-cache eviction" test_e2e_node_cache_eviction;
        ] );
      ( "sharded",
        [
          tc "byte identity" test_sharded_byte_identity;
          tc "worker lost and re-fork" test_sharded_worker_lost;
        ] );
    ]
