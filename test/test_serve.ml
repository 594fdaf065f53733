(* Tests for Vp_serve: the hand-rolled JSON codec, the frame decoder, the
   request validation, and the daemon end-to-end over a real Unix socket —
   byte-identity with the direct renderers, warm/dedup behaviour,
   admission control, timeouts and graceful shutdown. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

module J = Vp_serve.Jsonx
module P = Vp_serve.Protocol

(* What ["all"] expands to: the names of the registry's [all] entries. *)
let all_names =
  List.map (fun (a : Vliw_vp.Artifact.t) -> a.name) Vliw_vp.Artifact.all_sequence

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

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

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
    (Result.is_error (J.parse "\"abc"));
  (* Nesting is bounded at 64 arrays/objects: the limit itself parses, one
     more level is rejected with an error naming the limit, and so is a
     frame-sized tower, balanced or not. *)
  let nested n = String.make n '[' ^ String.make n ']' in
  checkb "64 levels parse" true (Result.is_ok (J.parse (nested 64)));
  let rejected label doc =
    match J.parse doc with
    | Ok _ -> Alcotest.failf "%s: accepted" label
    | Error msg ->
        checkb (label ^ " names the depth") true (contains ~sub:"64" msg)
  in
  rejected "65 levels" (nested 65);
  rejected "65 objects"
    (String.concat "" (List.init 65 (fun _ -> {|{"a":|}))
    ^ "1" ^ String.make 65 '}');
  rejected "100k levels" (nested 100_000);
  rejected "unbalanced 1M" (String.make 1_000_000 '[')

(* The escaper as the protocol defines it, one byte at a time: a quote,
   a backslash and the control bytes are escaped, every other byte (DEL
   and UTF-8 included) is copied. *)
let reference_escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Byte strings over all 256 values, weighted towards the bytes the
   escaper treats specially, multi-byte UTF-8 and runs of plain text. *)
let bytes_gen =
  QCheck.Gen.(
    map (String.concat "")
      (list_size (0 -- 40)
         (frequency
            [
              (4, map (fun c -> String.make 1 (Char.chr c)) (0 -- 255));
              ( 2,
                oneofl
                  [ "\""; "\\"; "\n"; "\r"; "\t"; "\000"; "\b"; "\031";
                    "\127" ] );
              (1, oneofl [ "\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9d\x84\x9e" ]);
              (2, string_size ~gen:(char_range 'a' 'z') (1 -- 30));
            ])))

let prop_jsonx_escape =
  QCheck.Test.make ~name:"string escaping = the per-byte reference"
    ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%S") bytes_gen)
    (fun s ->
      let encoded = J.to_string (J.Str s) in
      encoded = reference_escape s && J.parse encoded = Ok (J.Str s))

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

(* Feed [chunks] in order, draining after each: the payloads decoded and
   the first error, after which nothing more is fed. *)
let decode_chunks ?max_frame chunks =
  let dec = P.Decoder.create ?max_frame () in
  let rec drain acc =
    match P.Decoder.next dec with
    | Ok (Some p) -> drain (p :: acc)
    | Ok None -> Ok acc
    | Error e -> Error (acc, e)
  in
  let rec go acc = function
    | [] -> (List.rev acc, None)
    | c :: rest -> (
        P.Decoder.feed dec (Bytes.of_string c) (String.length c);
        match drain acc with
        | Ok acc -> go acc rest
        | Error (acc, e) -> (List.rev acc, Some e))
  in
  go [] chunks

(* One wire item: a well-formed frame, or one of the malformed headers the
   decoder rejects (a non-numeric or negative length, a frame over the
   limit, a header with no newline in its first 21 bytes). *)
type item = Frame of string | Malformed of string

let decoder_max_frame = 48

let item_gen =
  QCheck.Gen.(
    frequency
      [
        ( 8,
          map
            (fun s -> Frame s)
            (string_size ~gen:(oneofl [ 'a'; '7'; '\n'; '{'; ' ' ]) (0 -- 40))
        );
        ( 1,
          map
            (fun s -> Malformed s)
            (oneof
               [
                 oneofl [ "12x\n"; "-3\n"; "\n"; "0x\n"; " 5\n" ];
                 map
                   (fun n -> P.frame (String.make n 'z'))
                   (decoder_max_frame + 1 -- 80);
                 map (fun n -> String.make n '9') (21 -- 30);
               ]) );
      ])

let wire_of items =
  String.concat ""
    (List.map (function Frame p -> P.frame p | Malformed h -> h) items)

(* Any chunking of a frame sequence decodes exactly as one feed of it:
   the same payloads, then the same error (or none). Without truncation,
   those are the frames before the first malformed item, and the error is
   there exactly when a malformed item is. *)
let prop_decoder_chunking =
  QCheck.Test.make ~name:"any chunking decodes as one feed" ~count:500
    QCheck.(
      make
        ~print:(fun (items, cuts, trunc) ->
          Printf.sprintf "wire=%S cuts=[%s] truncated=%b"
            (wire_of items)
            (String.concat ";" (List.map string_of_int cuts))
            trunc)
        Gen.(
          triple
            (list_size (0 -- 12) item_gen)
            (list_size (0 -- 20) (1 -- 400))
            bool))
    (fun (items, cuts, trunc) ->
      let wire = wire_of items in
      let wire =
        if trunc then String.sub wire 0 (String.length wire * 2 / 3) else wire
      in
      let rec chunks off = function
        | _ when off >= String.length wire -> []
        | [] -> [ String.sub wire off (String.length wire - off) ]
        | c :: rest ->
            let n = min c (String.length wire - off) in
            String.sub wire off n :: chunks (off + n) rest
      in
      let decode = decode_chunks ~max_frame:decoder_max_frame in
      let whole = decode [ wire ] in
      let rec model acc = function
        | [] -> (List.rev acc, false)
        | Frame p :: rest -> model (p :: acc) rest
        | Malformed _ :: _ -> (List.rev acc, true)
      in
      let payloads, malformed = model [] items in
      let bytewise =
        List.init (String.length wire) (fun i -> String.make 1 wire.[i])
      in
      decode (chunks 0 cuts) = whole
      && decode bytewise = whole
      && (trunc
         || (fst whole = payloads && Option.is_some (snd whole) = malformed)))

(* A megabyte of 4-byte frames in one feed decodes in linear time: every
   byte is copied a bounded number of times, not once per frame. *)
let test_decoder_linear () =
  let n = (1 lsl 20) / 4 in
  let payload i = Printf.sprintf "%04d" (i mod 10_000) in
  let wire = String.concat "" (List.init n (fun i -> P.frame (payload i))) in
  let t0 = Unix.gettimeofday () in
  let payloads, err = decode_chunks [ wire ] in
  let dt = Unix.gettimeofday () -. t0 in
  checkb "no error" true (Option.is_none err);
  checki "every frame" n (List.length payloads);
  checks "last payload" (payload (n - 1)) (List.nth payloads (n - 1));
  checkb (Printf.sprintf "decoded in %.2f s (limit 2 s)" dt) true (dt < 2.0)

(* --- result frames and the frame path's allocation --- *)

(* Ids over an alphabet with the bytes an id must be escaped for. *)
let id_gen =
  QCheck.Gen.(
    string_size
      ~gen:(oneofl [ 'a'; 's'; ':'; '7'; ' '; '"'; '\\'; '\n'; '\001'; '\xc3' ])
      (0 -- 12))

(* A shard's result frame, re-headed with the client's id, is the frame
   the client's id would have been encoded under directly — byte for
   byte. An id that is written with an escape is declined, and so is
   every frame that is not a result; those go through the parse. *)
let prop_reheading =
  QCheck.Test.make ~name:"re-heading a result = encoding it directly"
    ~count:500
    (QCheck.make
       ~print:(fun (sid, cid, artifact, data) ->
         Printf.sprintf "sid=%S cid=%S artifact=%S data=%S" sid cid artifact
           data)
       QCheck.Gen.(quad id_gen id_gen bytes_gen bytes_gen))
    (fun (sid, cid, artifact, data) ->
      let direct = P.frame (J.to_string (P.result ~id:cid ~artifact ~data)) in
      let shard = J.to_string (P.result ~id:sid ~artifact ~data) in
      let escaped = J.to_string (J.Str sid) <> "\"" ^ sid ^ "\"" in
      let parsed_id payload =
        match J.parse payload with
        | Ok j -> J.string_member "id" j
        | Error _ -> None
      in
      let others =
        [
          P.accepted ~id:sid ~artifacts:[ artifact ] ~queue_depth:1;
          P.done_ ~id:sid ~wall_s:0.25;
          P.error ~id:sid (P.reject "timeout" "%s" data);
          P.event ~id:sid ~event:"pong" [];
          P.event ~id:sid ~event:"stats" [ ("stats", J.Obj []) ];
        ]
      in
      P.result_frame ~id:cid (P.result_body ~artifact ~data) = direct
      && List.for_all
           (fun f -> Option.is_none (P.split_result (J.to_string f)))
           others
      &&
      match P.split_result shard with
      | Some (sid', body) ->
          (not escaped) && sid' = sid && P.result_frame ~id:cid body = direct
      | None -> escaped && parsed_id shard = Some sid)

(* [f io peer] over a socketpair whose [io] end is a nonblocking
   [Frameio]. *)
let with_frameio f =
  let a, peer = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock a;
  let io = Vp_serve.Frameio.create a in
  Fun.protect
    ~finally:(fun () ->
      Vp_serve.Frameio.close io;
      Unix.close peer)
    (fun () -> f io peer)

(* Bytes allocated by [f ()], read with [Gc.allocated_bytes], which also
   sees blocks too large for the minor heap. *)
let allocated f =
  let before = Gc.allocated_bytes () in
  f ();
  Gc.allocated_bytes () -. before

(* Reading a small frame costs about the frame, not a fresh 64 KiB read
   buffer per call. *)
let test_read_step_alloc () =
  with_frameio (fun io peer ->
      let payload = {|{"op":"ping","id":"|} ^ String.make 72 'p' ^ {|"}|} in
      let got = ref 0 in
      let on_frame p =
        checks "payload" payload p;
        incr got
      in
      let read () =
        match Vp_serve.Frameio.read_step io ~on_frame with
        | `Ok -> ()
        | _ -> Alcotest.fail "read_step did not drain the socket"
      in
      P.write_frame peer payload;
      read ();
      P.write_frame peer payload;
      let bytes = allocated read in
      checki "both frames delivered" 2 !got;
      checkb
        (Printf.sprintf "read_step allocated %.0f bytes (limit 8192)" bytes)
        true (bytes < 8192.))

(* A result frame is built in one allocation of its final size: sending
   one costs at most about twice the frame. *)
let test_send_alloc () =
  with_frameio (fun io _peer ->
      let row i = Printf.sprintf "| row %3d | 0.%04d | \"li\" |\n" i (i * 37) in
      let data = String.concat "" (List.init 300 row) in
      let json = P.result ~id:"c41-0-1" ~artifact:"table2" ~data in
      let frame = String.length (P.frame (J.to_string json)) in
      checkb "a 9 KB result" true (frame > 9000);
      Vp_serve.Frameio.send io json;
      let bytes = allocated (fun () -> Vp_serve.Frameio.send io json) in
      checkb
        (Printf.sprintf "send allocated %.0f bytes for a %d-byte frame" bytes
           frame)
        true
        (bytes <= 2. *. float_of_int frame))

(* --- request validation --- *)

let parse_req s =
  match J.parse s with
  | Error e -> Alcotest.fail e
  | Ok j -> P.request_of_json j

let frame_id frame =
  match J.parse frame with
  | Ok j -> Option.value ~default:"" (J.string_member "id" j)
  | Error e -> Alcotest.fail e

(* Submit frames each with one field of the wrong type, and the field its
   rejection must name. [1e400] is a budget JSON cannot keep finite:
   [Jsonx] reads it as infinity, which no deadline and no frame forwarded
   to a shard can carry. *)
let ill_typed_submits =
  [
    ({|{"op":"submit","id":"inf","timeout_s":1e400}|}, "timeout_s");
    ({|{"op":"submit","id":"soon","timeout_s":"soon"}|}, "timeout_s");
    ({|{"op":"submit","id":"w","config":{"width":"8"}}|}, "width");
    ({|{"op":"submit","id":"s","config":{"seed":"7"}}|}, "seed");
    ({|{"op":"submit","id":"th","config":{"threshold":"0.7"}}|}, "threshold");
    ({|{"op":"submit","id":"cfg","config":[4]}|}, "config");
    ({|{"op":"submit","id":"b","benchmarks":"compress"}|}, "benchmarks");
    ({|{"op":"submit","id":"e","experiments":"example"}|}, "experiments");
    ({|{"op":"submit","id":"f","format":"CSV"}|}, "format");
  ]

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
      Alcotest.(check (list string)) "empty = all" all_names s.experiments
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
  (* widths inside the old 1-64 range that the machine has no preset for
     are refused at the door too, naming the widths it does model *)
  List.iter
    (fun w ->
      match
        parse_req
          (Printf.sprintf {|{"op":"submit","id":"w%d","config":{"width":%d}}|}
             w w)
      with
      | Error (_, r) ->
          checks (Printf.sprintf "width %d code" w) "bad_request" r.code;
          checkb
            (Printf.sprintf "width %d message names the presets (%s)" w
               r.message)
            true
            (contains ~sub:"2, 4, 8, 16" r.message)
      | Ok _ -> Alcotest.failf "width %d accepted" w)
    [ 1; 3; 64 ];
  List.iter
    (fun w ->
      match
        parse_req
          (Printf.sprintf {|{"op":"submit","id":"w","config":{"width":%d}}|} w)
      with
      | Ok (P.Submit s) -> checki "preset width kept" w s.width
      | _ -> Alcotest.failf "preset width %d refused" w)
    Vp_machine.Descr.widths;
  (match parse_req {|{"id":"r5"}|} with
  | Error (_, r) -> checks "code" "bad_request" r.code
  | Ok _ -> Alcotest.fail "missing op accepted");
  List.iter
    (fun (frame, field) ->
      match parse_req frame with
      | Error (id, r) ->
          checks (frame ^ " id") (frame_id frame) id;
          checks (frame ^ " code") "bad_request" r.code;
          checkb
            (Printf.sprintf "%s: message names %s (%s)" frame field r.message)
            true
            (contains ~sub:field r.message)
      | Ok _ -> Alcotest.failf "%s accepted" frame)
    ill_typed_submits;
  (* zero and negative budgets parse: they mean "no timeout" *)
  List.iter
    (fun t ->
      match
        parse_req
          (Printf.sprintf {|{"op":"submit","id":"t","timeout_s":%s}|} t)
      with
      | Ok (P.Submit s) ->
          checkb ("timeout_s " ^ t ^ " kept") true (s.timeout_s <> None)
      | _ -> Alcotest.failf "timeout_s %s refused" t)
    [ "0"; "-5"; "0.5" ];
  (match parse_req {|{"op":"submit","id":"c","format":"csv"}|} with
  | Ok (P.Submit s) -> checkb "format csv" true s.csv
  | _ -> Alcotest.fail "format csv refused");
  (* a threshold is a rate in [0, 1]: checked at the door as a core field,
     and at admission as a sweep point *)
  (match parse_req {|{"op":"submit","id":"th","config":{"threshold":1.5}}|} with
  | Error (id, r) ->
      checks "threshold 1.5 id" "th" id;
      checks "threshold 1.5 code" "bad_request" r.code;
      checks "threshold 1.5 message" "threshold out of range: 1.5" r.message
  | Ok _ -> Alcotest.fail "threshold 1.5 accepted");
  (match
     parse_req
       {|{"op":"submit","id":"tp","experiments":["sweep:t"],
          "sweeps":{"t":[{"label":"neg","config":{"threshold":-0.5}}]}}|}
   with
  | Ok (P.Submit s) -> (
      match Vp_serve.Spec.of_submit s with
      | Error (r : P.reject) ->
          checks "sweep threshold code" "bad_sweep" r.code;
          checkb
            (Printf.sprintf "sweep threshold message (%s)" r.message)
            true
            (contains ~sub:"threshold out of range: -0.5" r.message)
      | Ok _ -> Alcotest.fail "sweep point threshold -0.5 admitted")
  | _ -> Alcotest.fail "sweep with a threshold point refused at parse");
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

(* A width the machine has no preset for is a structured rejection at
   admission — [bad_config] as an override, [bad_sweep] as a sweep point —
   never a [job_failed] from inside every benchmark job. *)
let test_width_override_validation () =
  let code_of spec =
    match Vp_serve.Spec.of_submit spec with
    | Ok _ -> "accepted"
    | Error (r : P.reject) ->
        checkb
          (Printf.sprintf "message names the presets (%s)" r.message)
          true
          (contains ~sub:"2, 4, 8, 16" r.message);
        r.code
  in
  checks "override" "bad_config"
    (code_of
       (Vp_serve.Client.submit_spec ~experiments:[ "table2" ]
          ~overrides:[ ("width", J.Int 3) ] ()));
  checks "sweep point" "bad_sweep"
    (code_of
       (Vp_serve.Client.submit_spec ~experiments:[ "sweep:w" ]
          ~sweeps:[ ("w", [ ("ok", [ ("width", J.Int 8) ]);
                            ("bad", [ ("width", J.Int 64) ]) ]) ]
          ()));
  checkb "preset widths admitted" true
    (Result.is_ok
       (Vp_serve.Spec.of_submit
          (Vp_serve.Client.submit_spec ~experiments:[ "sweep:w" ]
             ~sweeps:
               [ ("w", List.map
                         (fun w -> (string_of_int w, [ ("width", J.Int w) ]))
                         Vp_machine.Descr.widths) ]
             ())))

(* Render keys are a function of the request's content: two admissions of
   one submit agree, and changing any one input that shapes an artifact's
   work changes its key. A sweep point salts only its sweep's artifact. *)
let test_render_keys () =
  let key ?(artifact = "table2") submit =
    match Vp_serve.Spec.of_submit submit with
    | Ok spec -> Vp_serve.Spec.render_key spec ~artifact
    | Error (r : P.reject) -> Alcotest.failf "rejected: %s" r.message
  in
  let base_points =
    [ ("a", [ ("trace_length", J.Int 1000) ]);
      ("b", [ ("trace_length", J.Int 3000) ]) ]
  in
  let submit ?(benchmarks = [ "compress" ]) ?(width = 4) ?(seed = 42)
      ?(threshold = 0.65) ?(csv = false) ?(overrides = [])
      ?(points = base_points) () =
    Vp_serve.Client.submit_spec ~experiments:[ "table2"; "sweep:x" ]
      ~benchmarks ~width ~seed ~threshold ~csv ~overrides
      ~sweeps:[ ("x", points) ] ()
  in
  let base = submit () in
  checks "one submit, equal keys" (key base) (key base);
  checks "equal submits, equal keys" (key base) (key (submit ()));
  checks "equal sweep keys" (key ~artifact:"sweep:x" base)
    (key ~artifact:"sweep:x" (submit ()));
  let differs label k =
    checkb (label ^ " changes the key") true (k <> key base)
  in
  differs "artifact" (key ~artifact:"table3" base);
  differs "seed" (key (submit ~seed:43 ()));
  differs "width" (key (submit ~width:8 ()));
  differs "threshold" (key (submit ~threshold:0.7 ()));
  differs "an override"
    (key (submit ~overrides:[ ("branch_penalty", J.Int 3) ] ()));
  differs "the benchmark list"
    (key (submit ~benchmarks:[ "compress"; "li" ] ()));
  differs "csv" (key (submit ~csv:true ()));
  let other_points =
    [ ("a", [ ("trace_length", J.Int 1000) ]);
      ("b", [ ("trace_length", J.Int 3001) ]) ]
  in
  checkb "a sweep point changes its sweep's key" true
    (key ~artifact:"sweep:x" (submit ~points:other_points ())
    <> key ~artifact:"sweep:x" base);
  checks "a sweep point leaves other artifacts' keys" (key base)
    (key (submit ~points:other_points ()))

(* On a bare graph, where size and retention are visible: declaring every
   artifact of [all] again finds each render node, so the graph neither
   grows nor retains more, and each artifact counts one dedup. *)
let test_warm_declaration_is_lookup () =
  let progress = Vp_exec.Progress.silent () in
  let g = Vp_exec.Graph.create (Vp_exec.Context.create ~progress ()) in
  let submit =
    Vp_serve.Client.submit_spec ~experiments:[ "all" ]
      ~benchmarks:[ "compress" ] ()
  in
  let request () =
    match Vp_serve.Spec.of_submit submit with
    | Error (r : P.reject) -> Alcotest.failf "rejected: %s" r.message
    | Ok spec ->
        List.map
          (fun a ->
            Vp_exec.Graph.await g (Vp_serve.Spec.declare_artifact g spec a))
          submit.experiments
  in
  let deduped () = (Vp_exec.Progress.snapshot progress).deduped in
  let cold = request () in
  let size = Vp_exec.Graph.size g
  and retained = Vp_exec.Graph.retained g
  and dedup = deduped () in
  let warm = request () in
  checkb "identical bytes" true (cold = warm);
  checki "graph size unchanged" size (Vp_exec.Graph.size g);
  checki "retained nodes unchanged" retained (Vp_exec.Graph.retained g);
  checki "one dedup per artifact"
    (List.length submit.experiments)
    (deduped () - dedup)

(* --- end-to-end over a real daemon --- *)

(* Start a daemon in its own domain, run [f ~socket client], shut down
   cleanly. Returns [f]'s result after the daemon has exited. *)
let with_server_at ?(cfg = fun c -> c) ?(jobs = par_jobs) ?store f =
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
      (fun () -> f ~socket client)
  in
  checkb "socket removed after shutdown" false (Sys.file_exists socket);
  result

let with_server ?cfg ?jobs ?store f =
  with_server_at ?cfg ?jobs ?store (fun ~socket:_ client -> f client)

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

(* One counter of the stats' graph section: [jobs_queued] counts the
   nodes declared (the graph's size), [deduped] the declarations and
   lookups answered by a node already on the graph. *)
let graph_counter client name =
  let stats = Vp_serve.Client.stats client in
  match J.member "graph" stats with
  | Some g -> Option.value ~default:(-1) (J.int_member name g)
  | None -> Alcotest.fail "stats without graph section"

let graph_jobs client = graph_counter client "jobs_queued"

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

(* A warm resubmit of [all] answers each artifact from its finished render
   node: one lookup, counted as one dedup, per artifact, and no node
   declared — the leaves behind the render nodes are not re-declared. *)
let check_warm_all_is_lookups client =
  let all () =
    Vp_serve.Client.submit_spec ~experiments:[ "all" ]
      ~benchmarks:[ "compress" ] ()
  in
  let o1 = Vp_serve.Client.submit client (all ()) in
  checkb "cold ok" true (o1.error = None);
  let jobs = graph_jobs client and dedup = graph_counter client "deduped" in
  let o2 = Vp_serve.Client.submit client (all ()) in
  checkb "warm ok" true (o2.error = None);
  checkb "identical bytes" true (o1.results = o2.results);
  checki "no node declared" jobs (graph_jobs client);
  checki "one dedup per artifact"
    (List.length Vliw_vp.Artifact.all_sequence)
    (graph_counter client "deduped" - dedup)

let test_e2e_warm_all_is_lookups () = with_server check_warm_all_is_lookups

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

(* --- the envelope, against both daemons ---

   Each case takes the daemon to run against: [run limits f] starts one
   with the admission [limits] (given as the serve flags that set them),
   runs [f ~socket client] and shuts it down. [in_process] is defined
   here, [one_shard] with the sharded tests below. *)

let in_process limits f =
  with_server_at
    ~cfg:(fun c ->
      List.fold_left
        (fun (c : Vp_serve.Server.config) -> function
          | "--max-pending", n -> { c with max_pending = n }
          | "--client-quota", n -> { c with client_quota = n }
          | flag, _ -> invalid_arg flag)
        c limits)
    f

let admission_overloaded run () =
  run [ ("--max-pending", 0) ] (fun ~socket:_ client ->
      let o = Vp_serve.Client.submit client (table2_spec ()) in
      match o.error with
      | Some ("overloaded", _) -> ()
      | Some (code, _) -> Alcotest.failf "expected overloaded, got %s" code
      | None -> Alcotest.fail "admitted despite max_pending=0")

let admission_quota run () =
  run [ ("--client-quota", 0) ] (fun ~socket:_ client ->
      let o = Vp_serve.Client.submit client (table2_spec ()) in
      match o.error with
      | Some ("quota_exceeded", _) -> ()
      | Some (code, _) -> Alcotest.failf "expected quota_exceeded, got %s" code
      | None -> Alcotest.fail "admitted despite client_quota=0")

let unknown_benchmark run () =
  run [] (fun ~socket:_ client ->
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

let timeout run () =
  run [] (fun ~socket:_ client ->
      (* A request with a 1 us budget, which no request can meet: the
         deadline is stamped at admission, and [Server.deliver] checks it
         again before it delivers any result, so however fast the work
         finishes the reply is a timeout — cold, and warm, where the
         in-process graph answers before any tick. A budget a request can
         meet would race the work: a cold table2 over compress can finish
         inside 10 ms. *)
      let spec ?timeout_s () =
        Vp_serve.Client.submit_spec ~experiments:[ "table2" ]
          ~benchmarks:[ "compress" ] ~seed:987 ?timeout_s ()
      in
      let expect_timeout label =
        let t0 = Unix.gettimeofday () in
        let o = Vp_serve.Client.submit client (spec ~timeout_s:1e-6 ()) in
        let elapsed = Unix.gettimeofday () -. t0 in
        (match o.error with
        | Some ("timeout", _) -> ()
        | Some (code, m) ->
            Alcotest.failf "%s: expected timeout, got %s: %s" label code m
        | None -> Alcotest.failf "%s: no timeout reported" label);
        checkb (label ^ ": timeout reported promptly") true (elapsed < 5.0)
      in
      expect_timeout "cold";
      checkb "unbounded resubmit completes" true
        ((Vp_serve.Client.submit client (spec ())).error = None);
      expect_timeout "warm")

(* [f fd] over one raw connection to the daemon. *)
let with_raw_connection socket f =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
      f fd)

(* The next frame's payload; a daemon that sends none within 10 s fails
   the case instead of hanging it. *)
let recv_raw fd =
  match P.read_frame fd with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Alcotest.fail "no frame within 10 s"
  | None -> Alcotest.fail "connection closed without a reply"
  | Some payload -> payload

(* Send a frame; the parsed reply. *)
let exchange fd payload =
  P.write_frame fd payload;
  match J.parse (recv_raw fd) with
  | Ok j -> j
  | Error e -> Alcotest.failf "unparseable reply: %s" e

let stats_and_ping run () =
  run [] (fun ~socket client ->
      (* A ping nested 100,000 levels deep is refused as a bad request
         before it reaches the protocol layer, and the same connection
         still gets its next ping answered. *)
      with_raw_connection socket (fun fd ->
          let deep =
            {|{"op":"ping","id":"deep","pad":|}
            ^ String.make 100_000 '[' ^ String.make 100_000 ']' ^ "}"
          in
          let member field reply =
            Option.value ~default:"" (J.string_member field reply)
          in
          checks "deep frame rejected" "bad_request"
            (member "code" (exchange fd deep));
          checks "then pong" "pong"
            (member "event" (exchange fd {|{"op":"ping","id":"p"}|})));
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
        (Option.value ~default:(-1) (J.int_member "count" latency));
      (* the compute layers' memo counters, as [--telemetry] names them *)
      List.iter
        (fun k ->
          checkb ("spec_unit." ^ k ^ " is an integer") true
            (Option.bind (member "spec_unit") (J.int_member k) <> None))
        [ "hits"; "misses" ])

(* Every ill-typed submit, the infinite budget first, is answered with a
   structured [bad_request] under its own id — and before any [accepted]:
   the parse is the reply. *)
let ill_typed_submits_rejected run () =
  run [] (fun ~socket _client ->
      with_raw_connection socket (fun fd ->
          List.iter
            (fun (frame, _) ->
              let reply = exchange fd frame in
              let member field =
                Option.value ~default:"" (J.string_member field reply)
              in
              checks (frame ^ ": event") "error" (member "event");
              checks (frame ^ ": code") "bad_request" (member "code");
              checks (frame ^ ": id") (frame_id frame) (member "id"))
            ill_typed_submits))

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

(* A width the machine cannot model never reaches a job: the daemon
   rejects it at admission, as the core field and as a sweep point. *)
let test_e2e_unsupported_width () =
  with_server (fun client ->
      let code spec =
        match (Vp_serve.Client.submit client spec).error with
        | Some (code, _) -> code
        | None -> "accepted"
      in
      checks "core width" "bad_request"
        (code
           (Vp_serve.Client.submit_spec ~experiments:[ "table2" ]
              ~benchmarks:[ "compress" ] ~width:3 ()));
      checks "sweep point width" "bad_sweep"
        (code
           (Vp_serve.Client.submit_spec ~experiments:[ "sweep:w" ]
              ~benchmarks:[ "compress" ]
              ~sweeps:[ ("w", [ ("three", [ ("width", J.Int 3) ]) ]) ]
              ())))

(* With a one-node cache, a cold table2 leaves only its render node (the
   newest), and an unrelated request evicts it. The resubmit's lookup then
   misses and the artifact is declared again, byte-identically; the next
   resubmit finds the re-declared render node. *)
let test_e2e_render_node_eviction () =
  with_server
    ~cfg:(fun c -> { c with Vp_serve.Server.node_cap = Some 1 })
    (fun client ->
      let submit experiments =
        let o =
          Vp_serve.Client.submit client
            (Vp_serve.Client.submit_spec ~experiments
               ~benchmarks:[ "compress" ] ())
        in
        (match o.error with
        | Some (code, m) -> Alcotest.failf "%s: %s" code m
        | None -> ());
        o.results
      in
      let cold = submit [ "table2" ] in
      ignore (submit [ "example" ]);
      checkb "evictions reported" true
        (graph_counter client "node_evictions" > 0);
      let jobs = graph_jobs client in
      let again = submit [ "table2" ] in
      checkb "evicted render node declared again" true
        (graph_jobs client > jobs);
      checkb "identical after re-declaration" true (cold = again);
      let jobs = graph_jobs client and dedup = graph_counter client "deduped" in
      let warm = submit [ "table2" ] in
      checki "re-declared node found" jobs (graph_jobs client);
      checki "by one lookup" 1 (graph_counter client "deduped" - dedup);
      checkb "identical when found" true (cold = warm))

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

let with_sharded_at ?(workers = 2) ?(flags = []) f =
  let socket = fresh_socket () in
  let cache = fresh_dir () in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process bin
      (Array.of_list
         ([
            bin; "serve"; "--workers"; string_of_int workers; "--socket";
            socket; "--cache-dir"; cache; "-j"; "1"; "--timeout"; "120";
          ]
         @ flags))
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
    (fun () -> f ~socket client)

let with_sharded ?workers f =
  with_sharded_at ?workers (fun ~socket:_ client -> f client)

let one_shard limits f =
  with_sharded_at ~workers:1
    ~flags:(List.concat_map (fun (flag, n) -> [ flag; string_of_int n ]) limits)
    f

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

let test_sharded_warm_all_is_lookups () =
  with_sharded ~workers:1 check_warm_all_is_lookups

(* One raw submit, under one id that must be escaped, sent to the
   in-process daemon and to a one-shard daemon: the client gets the same
   frames, byte for byte, in the same order, whether a result was encoded
   in the loop's own process or re-headed on its way from a shard. Only
   the wall time in [done] may differ. *)
let test_raw_streams_agree () =
  let submit =
    {|{"op":"submit","id":"raw \"1\" \\ \u00e9","experiments":["table2","example"],"benchmarks":["compress"]}|}
  in
  let stream ~socket _client =
    with_raw_connection socket (fun fd ->
        P.write_frame fd submit;
        let rec go acc =
          let frame = recv_raw fd in
          match J.parse frame with
          | Ok j when J.string_member "event" j = Some "done" ->
              (* up to the wall time, its last field *)
              List.rev (String.sub frame 0 (String.rindex frame ':') :: acc)
          | Ok j when J.string_member "event" j = Some "error" ->
              Alcotest.failf "error frame: %s" frame
          | Ok _ -> go (frame :: acc)
          | Error e -> Alcotest.failf "unparseable frame: %s" e
        in
        go [])
  in
  let local = with_server_at ~jobs:1 stream in
  let sharded = one_shard [] stream in
  checki "accepted, two results, done" 4 (List.length local);
  Alcotest.(check (list string)) "same frames" local sharded

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

(* --- the artifact registry: the one list every driver iterates --- *)

(* [vliw_vp args]'s stdout; the run must exit 0. *)
let cli_stdout args =
  let out_r, out_w = Unix.pipe ~cloexec:false () in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process bin (Array.of_list (bin :: args)) Unix.stdin out_w null
  in
  Unix.close out_w;
  Unix.close null;
  let ic = Unix.in_channel_of_descr out_r in
  let out = In_channel.input_all ic in
  close_in ic;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "vliw_vp %s failed" (String.concat " " args));
  out

(* Every entry with a command prints what the daemon serves for the same
   request, under artifact.mli's one rule: a table subcommand's stdout is
   the served bytes without the separator, [example]'s and [ablate]'s is
   the served bytes. [all] prints the [all] entries' bytes in order, and
   the wire accepts exactly the registry's names. *)
let test_registry_bytes () =
  let module A = Vliw_vp.Artifact in
  let g =
    Vp_exec.Graph.create
      (Vp_exec.Context.create ~progress:(Vp_exec.Progress.silent ()) ())
  in
  let served ?(csv = false) name =
    match
      Vp_serve.Spec.of_submit
        (Vp_serve.Client.submit_spec ~experiments:[ name ]
           ~benchmarks:[ "compress" ] ~csv ())
    with
    | Ok spec -> Vp_exec.Graph.await g (Vp_serve.Spec.declare_artifact g spec name)
    | Error (r : P.reject) -> Alcotest.failf "%s rejected: %s" name r.message
  in
  let flags = [ "-b"; "compress"; "--no-cache" ] in
  List.iter
    (fun (a : A.t) ->
      let check args ~csv =
        let out = cli_stdout args in
        checks
          (String.concat " " ("vliw_vp" :: args))
          (served ~csv a.name)
          (match a.command with Some (A.Table _) -> out ^ "\n" | _ -> out)
      in
      match a.command with
      | None -> ()
      | Some (A.Bare { cmd; _ }) -> check [ cmd ] ~csv:false
      | Some (A.Table { cmd; csv; _ }) ->
          check (cmd :: flags) ~csv:false;
          if csv then check ((cmd :: flags) @ [ "--csv" ]) ~csv:true
      | Some (A.Sweep name) ->
          check ([ "ablate"; "--sweep"; name ] @ flags) ~csv:false)
    A.registry;
  checks "all = the all entries' bytes"
    (String.concat "" (List.map (fun (a : A.t) -> served a.name) A.all_sequence))
    (cli_stdout ("all" :: flags));
  List.iter
    (fun (a : A.t) ->
      Alcotest.(check (result (list string) string))
        (a.name ^ " accepted") (Ok [ a.name ])
        (P.expand_experiments [ a.name ]))
    A.registry;
  Alcotest.(check (result (list string) string))
    "all expands to the all entries" (Ok all_names)
    (P.expand_experiments [ "all" ]);
  List.iter
    (fun name ->
      Alcotest.(check (result (list string) string))
        (name ^ " rejected") (Error name)
        (P.expand_experiments [ name ]))
    [ "bogus"; "compare"; "frontier"; "ablate:nope"; "ablate"; "sweep:x"; "" ]

(* Every served CSV artifact is one or more tables, one per blank-line
   separated block: a header row, then rows of as many fields, every
   field outside the label columns a bare number. Most of these
   artifacts have no [--csv] subcommand, so only the wire reaches their
   CSV. [example] is prose in either format. No served cell holds a
   comma, so a row splits on every comma. *)
let test_served_csv_cells () =
  let module A = Vliw_vp.Artifact in
  let g =
    Vp_exec.Graph.create
      (Vp_exec.Context.create ~progress:(Vp_exec.Progress.silent ()) ())
  in
  let labels = [ "Benchmark"; "Bucket"; "Setting"; "State" ] in
  let tables value =
    List.fold_right
      (fun line acc ->
        match (line, acc) with
        | "", _ -> [] :: acc
        | _, table :: rest -> (line :: table) :: rest
        | _, [] -> [ [ line ] ])
      (String.split_on_char '\n' value)
      []
    |> List.filter (( <> ) [])
  in
  List.iter
    (fun (a : A.t) ->
      match a.command with
      | Some (A.Bare _) -> ()
      | Some (A.Table _ | A.Sweep _) | None -> (
          let value =
            match
              Vp_serve.Spec.of_submit
                (Vp_serve.Client.submit_spec ~experiments:[ a.name ]
                   ~benchmarks:[ "compress" ] ~csv:true ())
            with
            | Ok spec ->
                Vp_exec.Graph.await g
                  (Vp_serve.Spec.declare_artifact g spec a.name)
            | Error (r : P.reject) ->
                Alcotest.failf "%s rejected: %s" a.name r.message
          in
          match tables value with
          | [] -> Alcotest.failf "%s served no CSV" a.name
          | blocks ->
              List.iter
                (function
                  | [] -> ()
                  | first :: rows ->
                      let header = String.split_on_char ',' first in
                      checkb (a.name ^ " has rows") true (rows <> []);
                      List.iter
                        (fun row ->
                          let cells = String.split_on_char ',' row in
                          checki (a.name ^ " row fields") (List.length header)
                            (List.length cells);
                          List.iter2
                            (fun column cell ->
                              if not (List.mem column labels) then
                                checkb
                                  (Printf.sprintf "%s %s cell %S is a number"
                                     a.name column cell)
                                  true
                                  (Option.is_some (float_of_string_opt cell)))
                            header cells)
                        rows)
                blocks))
    A.registry

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "vp_serve"
    [
      ( "jsonx",
        [
          tc "roundtrip" test_jsonx_roundtrip;
          tc "parse" test_jsonx_parse;
          QCheck_alcotest.to_alcotest prop_jsonx_escape;
        ] );
      ( "decoder",
        [
          tc "split frames" test_decoder_split_frames;
          tc "rejects oversized" test_decoder_rejects_oversized;
          tc "rejects garbage" test_decoder_rejects_garbage;
          QCheck_alcotest.to_alcotest prop_decoder_chunking;
          tc "linear in its input" test_decoder_linear;
        ] );
      ( "frames",
        [
          QCheck_alcotest.to_alcotest prop_reheading;
          tc "read_step reuses its buffer" test_read_step_alloc;
          tc "send allocates the frame once" test_send_alloc;
        ] );
      ( "protocol",
        [
          tc "request validation" test_request_validation;
          tc "sweep and override validation"
            test_sweep_and_override_validation;
          tc "width override validation" test_width_override_validation;
          tc "render keys" test_render_keys;
          tc "warm declaration is a lookup" test_warm_declaration_is_lookup;
          tc "subcommand bytes = served bytes" test_registry_bytes;
          tc "served CSV cells are numbers" test_served_csv_cells;
        ] );
      ( "daemon",
        [
          tc "byte identity" test_e2e_byte_identity;
          tc "comparison identity" test_e2e_comparison_identity;
          tc "warm resubmit runs nothing" test_e2e_warm_resubmit_runs_nothing;
          tc "warm all is lookups" test_e2e_warm_all_is_lookups;
          tc "overlap identical streams" test_e2e_overlap_identical_streams;
          tc "admission: overloaded" (admission_overloaded in_process);
          tc "admission: quota" (admission_quota in_process);
          tc "unknown benchmark" (unknown_benchmark in_process);
          tc "timeout" (timeout in_process);
          tc "stats and ping" (stats_and_ping in_process);
          tc "ill-typed submits" (ill_typed_submits_rejected in_process);
          tc "overrides and custom sweep" test_e2e_overrides_and_custom_sweep;
          tc "sweep point validation" test_e2e_sweep_point_validation;
          tc "node-cache eviction" test_e2e_node_cache_eviction;
          tc "unsupported width" test_e2e_unsupported_width;
          tc "render node eviction" test_e2e_render_node_eviction;
        ] );
      ( "sharded",
        [
          tc "byte identity" test_sharded_byte_identity;
          tc "warm all is lookups" test_sharded_warm_all_is_lookups;
          tc "raw streams agree with in-process" test_raw_streams_agree;
          tc "worker lost and re-fork" test_sharded_worker_lost;
          tc "admission: overloaded" (admission_overloaded one_shard);
          tc "admission: quota" (admission_quota one_shard);
          tc "unknown benchmark" (unknown_benchmark one_shard);
          tc "timeout" (timeout one_shard);
          tc "stats and ping" (stats_and_ping one_shard);
          tc "ill-typed submits" (ill_typed_submits_rejected one_shard);
        ] );
    ]
