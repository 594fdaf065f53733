(* Load generator for the serve daemon.

       dune exec bench/serve_load.exe -- --socket PATH [options]

   Drives a running [vliw_vp serve] daemon through the public client and
   checks the serving guarantees, not just throughput:

   - {e byte-identity}: every client's reassembled stream for the same
     submit must be byte-identical to every other's (and to [--expect
     FILE] — CI passes a direct [vliw_vp all] capture);
   - {e payload jobs run once}: a second identical wave of requests must
     add {e zero} executed jobs to the daemon's graph counters — in-flight
     dedup and the warm graph absorb everything — and must answer each
     artifact with one lookup of its render node: the dedup counter rises
     by exactly requests x artifacts, so a warm request that re-declares
     the leaves behind its render nodes fails the check;
   - {e admission control}: a one-write burst of more requests than the
     per-client quota must produce structured rejections, never a hang.

   Exit status 0 only if every check passes. [--smoke] shrinks the load to
   a seconds-scale CI run; [--telemetry-out FILE] saves the daemon's final
   stats snapshot as a CI artifact. *)

module Jsonx = Vp_serve.Jsonx

let usage =
  "serve_load --socket PATH [--clients N] [--requests N] [--experiments \
   a,b,c] [--expect FILE] [--telemetry-out FILE] [--seed N] \
   [--distinct-seeds] [--saturate-burst N] [--no-saturate] [--smoke] \
   [--shutdown]"

let socket = ref ""
let clients = ref 4
let requests = ref 8
let experiments = ref [ "all" ]
let expect = ref None
let telemetry_out = ref None
let seed = ref 42
let distinct_seeds = ref false
let saturate_burst = ref 12
let no_saturate = ref false
let smoke = ref false
let shutdown = ref false

let () =
  let fail msg =
    Printf.eprintf "serve_load: %s\nusage: %s\n" msg usage;
    exit 2
  in
  let int_arg name v k =
    match int_of_string_opt v with
    | Some n when n > 0 -> k n
    | _ -> fail (Printf.sprintf "bad %s value %S" name v)
  in
  let rec go = function
    | [] -> ()
    | "--socket" :: v :: rest ->
        socket := v;
        go rest
    | "--clients" :: v :: rest -> int_arg "--clients" v (fun n -> clients := n; go rest)
    | "--requests" :: v :: rest -> int_arg "--requests" v (fun n -> requests := n; go rest)
    | "--experiments" :: v :: rest ->
        experiments := String.split_on_char ',' v;
        go rest
    | "--expect" :: v :: rest ->
        expect := Some v;
        go rest
    | "--telemetry-out" :: v :: rest ->
        telemetry_out := Some v;
        go rest
    | "--seed" :: v :: rest -> int_arg "--seed" v (fun n -> seed := n; go rest)
    | "--distinct-seeds" :: rest ->
        distinct_seeds := true;
        go rest
    | "--saturate-burst" :: v :: rest ->
        int_arg "--saturate-burst" v (fun n -> saturate_burst := n; go rest)
    | "--no-saturate" :: rest ->
        no_saturate := true;
        go rest
    | "--smoke" :: rest ->
        smoke := true;
        go rest
    | "--shutdown" :: rest ->
        shutdown := true;
        go rest
    | arg :: _ -> fail ("unknown argument " ^ arg)
  in
  go (List.tl (Array.to_list Sys.argv));
  if !socket = "" then fail "--socket is required";
  if !smoke then begin
    clients := 2;
    requests := 2
  end

let failures = ref 0

let check name ok detail =
  if ok then Printf.printf "serve_load: ok   %-28s %s\n%!" name detail
  else begin
    incr failures;
    Printf.printf "serve_load: FAIL %-28s %s\n%!" name detail
  end

(* With [--distinct-seeds] every (client, request) slot gets its own seed
   — genuinely distinct cold work, which is what a throughput measurement
   of the sharded daemon needs (identical requests would collapse into
   one job by design). Slot 0 keeps the base seed so the [--expect]
   comparison still holds. The second wave reuses the same seeds, so the
   warm-wave zero-new-jobs check is unchanged. *)
let slot_seed ~client ~request =
  if !distinct_seeds then !seed + ((client * !requests) + request) else !seed

let spec ~client ~request =
  Vp_serve.Client.submit_spec ~experiments:!experiments
    ~seed:(slot_seed ~client ~request)
    ()

(* One wave: [clients] domains, each its own connection, each pipelining
   [requests] submits. Returns the per-request digests (all must agree)
   and one full stream for the [--expect] comparison. *)
let run_wave () =
  let worker client () =
    let c = Vp_serve.Client.connect !socket in
    Fun.protect
      ~finally:(fun () -> Vp_serve.Client.close c)
      (fun () ->
        let ids =
          List.init !requests (fun request ->
              Vp_serve.Client.submit_async c (spec ~client ~request))
        in
        List.map
          (fun id ->
            let o = Vp_serve.Client.await c ~id in
            match o.Vp_serve.Client.error with
            | Some (code, msg) -> Error (code ^ ": " ^ msg)
            | None ->
                let bytes =
                  String.concat ""
                    (List.map snd o.Vp_serve.Client.results)
                in
                Ok bytes)
          ids)
  in
  let domains = List.init !clients (fun client -> Domain.spawn (worker client)) in
  List.concat_map Domain.join domains

let stream_digest = function Ok bytes -> Digest.string bytes | Error _ -> ""

let graph_counters stats =
  let get path =
    Option.value ~default:0 Jsonx.(int_member path (Option.value ~default:Null (member "graph" stats)))
  in
  (get "jobs_queued", get "jobs_done", get "deduped")

let () =
  let t0 = Unix.gettimeofday () in
  (* stats/monitoring connection *)
  let mon =
    match Vp_serve.Client.connect !socket with
    | c -> c
    | exception Unix.Unix_error (e, _, _) ->
        Printf.eprintf "serve_load: cannot connect to %s: %s\n" !socket
          (Unix.error_message e);
        exit 2
  in
  Vp_serve.Client.ping mon;

  (* Wave 1: concurrent cold requests from every client — identical by
     default (dedup proof), per-slot seeds under [--distinct-seeds]
     (throughput measurement). *)
  let w1_t0 = Unix.gettimeofday () in
  let wave1 = run_wave () in
  let wave1_s = Unix.gettimeofday () -. w1_t0 in
  let stats1 = Vp_serve.Client.stats mon in
  let q1, d1, dedup1 = graph_counters stats1 in

  let errors = List.filter_map (function Error e -> Some e | Ok _ -> None) wave1 in
  check "wave1-no-errors" (errors = [])
    (match errors with
    | [] -> Printf.sprintf "%d requests" (List.length wave1)
    | e :: _ -> e);

  let digests = List.map stream_digest wave1 in
  let distinct_count = List.length (List.sort_uniq compare digests) in
  (if !distinct_seeds then
     (* distinct work must actually be distinct, or the throughput
        number would be measuring dedup *)
     check "distinct-streams"
       (distinct_count = List.length digests)
       (Printf.sprintf "%d streams, %d distinct" (List.length digests)
          distinct_count)
   else
     let all_equal =
       match digests with
       | [] -> false
       | d :: rest -> List.for_all (( = ) d) rest
     in
     check "byte-identical-streams" all_equal
       (Printf.sprintf "%d streams, %d distinct" (List.length digests)
          distinct_count));

  (match (!expect, wave1) with
  | Some path, Ok bytes :: _ ->
      let ic = open_in_bin path in
      let expected =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      check "expect-file" (bytes = expected)
        (Printf.sprintf "%s (%d vs %d bytes)" path (String.length bytes)
           (String.length expected))
  | Some path, _ -> check "expect-file" false (path ^ ": no successful stream")
  | None, _ -> ());

  (* Wave 2: identical load against the now-warm daemon. The graph job
     counters must not move — that is the "payload simulations run once"
     guarantee, observable from outside the process — and each artifact
     must cost exactly one lookup, one dedup. *)
  let w2_t0 = Unix.gettimeofday () in
  let wave2 = run_wave () in
  let wave2_s = Unix.gettimeofday () -. w2_t0 in
  let stats2 = Vp_serve.Client.stats mon in
  let q2, d2, dedup2 = graph_counters stats2 in
  check "wave2-no-errors"
    (List.for_all (function Ok _ -> true | Error _ -> false) wave2)
    (Printf.sprintf "%d requests" (List.length wave2));
  let artifacts =
    match Vp_serve.Protocol.expand_experiments !experiments with
    | Ok names -> List.length names
    | Error _ -> 0
  in
  let lookups = List.length wave2 * artifacts in
  check "warm-wave-zero-new-jobs"
    (q2 = q1 && d2 = d1 && dedup2 - dedup1 = lookups)
    (Printf.sprintf "jobs %d -> %d (dedup %d -> %d, want +%d = %d x %d)" q1 q2
       dedup1 dedup2 lookups (List.length wave2) artifacts);
  let wave2_digests = List.map stream_digest wave2 in
  (* slot-for-slot: each warm stream must match its cold counterpart
     (with identical requests this is the old all-equal check; with
     distinct seeds it is the per-seed identity) *)
  check "warm-streams-identical"
    (digests <> [] && wave2_digests = digests)
    (Printf.sprintf "%d warm streams" (List.length wave2_digests));
  let reqs = List.length wave1 in
  Printf.printf
    "serve_load: wave1(cold) %.2fs (%.2f req/s), wave2(warm) %.2fs (%.2f \
     req/s)\n%!"
    wave1_s
    (if wave1_s > 0.0 then float_of_int reqs /. wave1_s else 0.0)
    wave2_s
    (if wave2_s > 0.0 then float_of_int reqs /. wave2_s else 0.0);

  (* Saturation: one connection, a burst of submits larger than any sane
     per-client quota, sent in a single write so the daemon sees them in
     one read burst before any completion can retire one. The admitted
     prefix must succeed and the excess must be rejected with a structured
     error — and the daemon must answer a ping afterwards. *)
  if not !no_saturate then begin
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX !socket);
    let n = !saturate_burst in
    let buf = Buffer.create 4096 in
    for i = 0 to n - 1 do
      (* distinct seeds: genuinely distinct (cold) work, so admitted
         requests stay pending while the burst is admitted *)
      let s =
        Vp_serve.Client.submit_spec
          ~id:(Printf.sprintf "sat-%d" i)
          ~experiments:[ "example" ] ~seed:(100_000 + i) ()
      in
      Buffer.add_string buf
        (Vp_serve.Protocol.frame
           (Jsonx.to_string (Vp_serve.Protocol.json_of_submit s)))
    done;
    let payload = Buffer.contents buf in
    let rec write_all off =
      if off < String.length payload then
        write_all
          (off + Unix.write_substring fd payload off (String.length payload - off))
    in
    write_all 0;
    (* Count terminal frames: done / error per id. *)
    let done_ids = Hashtbl.create 16 and rejected = ref 0 in
    let rejected_codes = Hashtbl.create 4 in
    (try
       while Hashtbl.length done_ids < n do
         match Vp_serve.Protocol.read_frame fd with
         | None -> raise Exit
         | Some payload -> (
             match Jsonx.parse payload with
             | Error _ -> raise Exit
             | Ok json -> (
                 let id =
                   Option.value ~default:"" (Jsonx.string_member "id" json)
                 in
                 match Jsonx.string_member "event" json with
                 | Some "done" -> Hashtbl.replace done_ids id `Done
                 | Some "error" ->
                     incr rejected;
                     let code =
                       Option.value ~default:"?"
                         (Jsonx.string_member "code" json)
                     in
                     Hashtbl.replace rejected_codes code
                       (1
                       + Option.value ~default:0
                           (Hashtbl.find_opt rejected_codes code));
                     Hashtbl.replace done_ids id `Rejected
                 | _ -> ()))
       done
     with Exit -> ());
    Unix.close fd;
    let codes =
      Hashtbl.fold
        (fun c n acc -> Printf.sprintf "%s:%d" c n :: acc)
        rejected_codes []
      |> String.concat ","
    in
    check "saturation-rejections"
      (!rejected > 0 && Hashtbl.length done_ids = n)
      (Printf.sprintf "%d/%d rejected (%s)" !rejected n codes);
    Vp_serve.Client.ping mon;
    check "alive-after-saturation" true ""
  end;

  (* Final telemetry snapshot: print the headline numbers, optionally save
     the full JSON as a CI artifact. *)
  let final = Vp_serve.Client.stats mon in
  (match !telemetry_out with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc (Jsonx.to_string final);
          output_char oc '\n');
      Printf.printf "serve_load: telemetry written to %s\n%!" path);
  let fq, fd_, fdedup = graph_counters final in
  Printf.printf
    "serve_load: %d clients x %d requests x2 waves in %.2fs; graph jobs \
     queued %d done %d deduped %d\n%!"
    !clients !requests
    (Unix.gettimeofday () -. t0)
    fq fd_ fdedup;
  if !shutdown then Vp_serve.Client.shutdown mon;
  Vp_serve.Client.close mon;
  if !failures > 0 then begin
    Printf.eprintf "serve_load: %d check(s) failed\n" !failures;
    exit 1
  end
