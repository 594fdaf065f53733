(* Wire protocol: length-prefixed JSON frames. See DESIGN.md ("Serve wire
   protocol") for the full schema reference; this module is the one
   implementation both sides share. *)

(* --- framing --- *)

let default_max_frame = 4 * 1024 * 1024

let frame payload =
  Printf.sprintf "%d\n%s" (String.length payload) payload

let write_frame fd payload =
  let data = frame payload in
  let len = String.length data in
  let rec go off =
    if off < len then
      let n = Unix.write_substring fd data off (len - off) in
      go (off + n)
  in
  go 0

(* Blocking frame read (client side). [None] on clean EOF at a frame
   boundary. *)
let read_frame ?(max_frame = default_max_frame) fd =
  let byte = Bytes.create 1 in
  let rec read_len acc first =
    match Unix.read fd byte 0 1 with
    | 0 -> if first then None else failwith "serve: truncated frame header"
    | _ -> (
        match Bytes.get byte 0 with
        | '\n' -> Some acc
        | '0' .. '9' as c ->
            let acc = (acc * 10) + (Char.code c - Char.code '0') in
            if acc > max_frame then failwith "serve: frame too large"
            else read_len acc false
        | c -> failwith (Printf.sprintf "serve: bad frame header byte %C" c))
  in
  match read_len 0 true with
  | None -> None
  | Some len ->
      let buf = Bytes.create len in
      let rec fill off =
        if off < len then
          match Unix.read fd buf off (len - off) with
          | 0 -> failwith "serve: truncated frame payload"
          | n -> fill (off + n)
      in
      fill 0;
      Some (Bytes.to_string buf)

(* Incremental decoder (server side, non-blocking sockets). The unconsumed
   bytes are [buf.[start .. stop - 1]]: a frame only advances [start], and
   [feed] moves the live bytes to the front, or into a buffer twice the
   size, only when the new bytes do not fit behind them. It compacts only
   when at least as many bytes have been consumed as are live, so each byte
   is copied a bounded number of times however the input is chunked. *)
module Decoder = struct
  type t = {
    max_frame : int;
    mutable buf : bytes;
    mutable start : int;
    mutable stop : int;
    mutable expect : int option;  (* payload length once the header parsed *)
  }

  (* A header is at most this many bytes before its newline. *)
  let max_header = 20

  let create ?(max_frame = default_max_frame) () =
    { max_frame; buf = Bytes.create 1024; start = 0; stop = 0; expect = None }

  let feed t bytes n =
    let live = t.stop - t.start in
    if t.stop + n > Bytes.length t.buf then begin
      let dst =
        if live + n <= Bytes.length t.buf && t.start >= live then t.buf
        else Bytes.create (max (2 * Bytes.length t.buf) (live + n))
      in
      Bytes.blit t.buf t.start dst 0 live;
      t.buf <- dst;
      t.start <- 0;
      t.stop <- live
    end;
    Bytes.blit bytes 0 t.buf t.stop n;
    t.stop <- t.stop + n

  (* [next t] is [Ok (Some payload)] when a whole frame is buffered,
     [Ok None] when more bytes are needed, [Error msg] on a malformed
     header or an oversized frame (the connection should be dropped). The
     header's newline is looked for only within its first [max_header + 1]
     bytes, so the answer never depends on how the bytes were chunked. *)
  let rec next t =
    match t.expect with
    | None -> (
        let window = min (t.stop - t.start) (max_header + 1) in
        let rec newline i =
          if i = t.start + window then None
          else if Bytes.get t.buf i = '\n' then Some i
          else newline (i + 1)
        in
        match newline t.start with
        | Some nl -> (
            let raw = Bytes.sub_string t.buf t.start (nl - t.start) in
            match int_of_string_opt raw with
            | Some len when len >= 0 ->
                if len > t.max_frame then
                  Error (Printf.sprintf "frame of %d bytes exceeds limit" len)
                else begin
                  t.expect <- Some len;
                  t.start <- nl + 1;
                  next t
                end
            | _ -> Error (Printf.sprintf "bad frame length %S" raw))
        | None ->
            if window > max_header then
              Error "frame header too long (missing newline)"
            else Ok None)
    | Some len ->
        if t.stop - t.start < len then Ok None
        else begin
          let payload = Bytes.sub_string t.buf t.start len in
          t.start <- t.start + len;
          t.expect <- None;
          Ok (Some payload)
        end
end

(* --- experiment registry --- *)

(* The names a submit request may ask for. "all" expands to the exact
   artifact sequence `vliw_vp all` prints, so a submit of ["all"] can be
   reassembled byte-identically to the direct CLI run. *)
let all_sequence =
  [ "table2"; "table3"; "table4"; "fig8"; "comparison"; "regions"; "overlap";
    "example" ]

let known_experiments =
  all_sequence
  @ [ "hyperblocks"; "hardware"; "stability"; "recovery"; "regions:frontier" ]
  @ List.map (fun (s, _) -> "ablate:" ^ s) Vliw_vp.Experiments.ablation_sweeps

(* [sweeps] are the request-declared custom sweep names: a submit carrying
   a ["sweeps"] spec may reference each as the experiment ["sweep:NAME"]. *)
let expand_experiments ?(sweeps = []) names =
  let is_sweep name =
    String.length name > 6
    && String.sub name 0 6 = "sweep:"
    && List.mem (String.sub name 6 (String.length name - 6)) sweeps
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | "all" :: rest -> go (List.rev_append all_sequence acc) rest
    | name :: rest ->
        if List.mem name known_experiments || is_sweep name then
          go (name :: acc) rest
        else Error name
  in
  match names with [] -> go [] [ "all" ] | names -> go [] names

(* --- requests --- *)

type submit = {
  id : string;
  experiments : string list;  (* expanded, validated, request order *)
  benchmarks : string list;  (* validated names; [] = the full set *)
  width : int;
  seed : int;
  threshold : float;
  overrides : (string * Jsonx.t) list;
      (* machine-config overrides: the non-core keys of the request's
         "config" object, shape-checked here, semantically validated
         against the config schema by [Vp_serve.Spec] at admission *)
  sweeps : (string * (string * (string * Jsonx.t) list) list) list;
      (* custom sweeps: name -> (point label, point config overrides),
         referenced from [experiments] as "sweep:NAME" *)
  csv : bool;
  timeout_s : float option;  (* None = the server default *)
}

type request =
  | Submit of submit
  | Stats of string
  | Ping of string
  | Shutdown of string

(* Structured rejection: [code] is machine-readable (DESIGN.md lists the
   vocabulary), [message] human-readable. *)
type reject = { code : string; message : string }

let reject code fmt = Printf.ksprintf (fun message -> { code; message }) fmt

(* The core keys of the "config" object; everything else is collected as a
   machine-config override and validated against the config schema at
   admission by [Vp_serve.Spec]. *)
let core_config_keys = [ "width"; "seed"; "threshold" ]

let config_overrides config =
  match config with
  | Jsonx.Obj fields ->
      List.filter (fun (k, _) -> not (List.mem k core_config_keys)) fields
  | _ -> []

(* Shape of the request-level "sweeps" spec:
     "sweeps": {"NAME": [{"label": "...", "config": {...}}, ...], ...}
   Names and per-sweep labels must be unique and point lists non-empty;
   the point configs' semantic validation happens at admission. *)
let parse_sweeps json =
  match Jsonx.member "sweeps" json with
  | None -> Ok []
  | Some (Jsonx.Obj entries) ->
      let parse_point name = function
        | Jsonx.Obj _ as p -> (
            match Jsonx.string_member "label" p with
            | None | Some "" ->
                Error
                  (reject "bad_sweep" "sweep %S: every point needs a \
                                       non-empty \"label\"" name)
            | Some label -> (
                match Jsonx.member "config" p with
                | None -> Ok (label, [])
                | Some (Jsonx.Obj fields) -> Ok (label, fields)
                | Some _ ->
                    Error
                      (reject "bad_sweep"
                         "sweep %S, point %S: \"config\" must be an object"
                         name label)))
        | _ -> Error (reject "bad_sweep" "sweep %S: points must be objects" name)
      in
      let parse_entry (name, points) =
        if name = "" then Error (reject "bad_sweep" "empty sweep name")
        else
          match points with
          | Jsonx.List [] ->
              Error (reject "bad_sweep" "sweep %S has no points" name)
          | Jsonx.List ps ->
              let rec go acc = function
                | [] -> Ok (name, List.rev acc)
                | p :: rest -> (
                    match parse_point name p with
                    | Error _ as e -> e
                    | Ok ((label, _) as point) ->
                        if List.mem_assoc label acc then
                          Error
                            (reject "bad_sweep" "sweep %S: duplicate label %S"
                               name label)
                        else go (point :: acc) rest)
              in
              go [] ps
          | _ ->
              Error
                (reject "bad_sweep" "sweep %S must be a list of points" name)
      in
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | entry :: rest -> (
            match parse_entry entry with
            | Error _ as e -> e
            | Ok ((name, _) as sweep) ->
                if List.mem_assoc name acc then
                  Error (reject "bad_sweep" "duplicate sweep %S" name)
                else go (sweep :: acc) rest)
      in
      go [] entries
  | Some _ -> Error (reject "bad_sweep" "\"sweeps\" must be an object")

(* A field that is present must have its type, named in the rejection;
   an absent one takes its default. *)
let field name ~what get ~default json =
  match Jsonx.member name json with
  | None -> Ok default
  | Some v -> (
      match get v with
      | Some x -> Ok x
      | None -> Error (reject "bad_request" "%S must be %s" name what))

let string_list name json =
  match Jsonx.member name json with
  | None -> Ok []
  | Some (Jsonx.List xs) -> (
      let strings = List.filter_map Jsonx.get_string xs in
      if List.compare_lengths strings xs = 0 then Ok strings
      else Error (reject "bad_request" "%s must be strings" name))
  | Some _ -> Error (reject "bad_request" "%S must be a list of strings" name)

let submit_of_json id json =
  let ( let* ) = Result.bind in
  let* names = string_list "experiments" json in
  let* benchmarks = string_list "benchmarks" json in
  let* sweeps = parse_sweeps json in
  let* experiments =
    match expand_experiments ~sweeps:(List.map fst sweeps) names with
    | Ok experiments -> Ok experiments
    | Error name ->
        Error (reject "unknown_experiment" "unknown experiment %S" name)
  in
  let* config =
    field "config" ~what:"an object"
      (function Jsonx.Obj _ as c -> Some c | _ -> None)
      ~default:(Jsonx.Obj []) json
  in
  let* width =
    field "width" ~what:"an integer" Jsonx.get_int ~default:4 config
  in
  let* seed = field "seed" ~what:"an integer" Jsonx.get_int ~default:42 config in
  let* threshold =
    field "threshold" ~what:"a number" Jsonx.get_float ~default:0.65 config
  in
  let* csv =
    field "format" ~what:{|"ascii" or "csv"|}
      (function
        | Jsonx.Str "ascii" -> Some false
        | Jsonx.Str "csv" -> Some true
        | _ -> None)
      ~default:false json
  in
  (* [Jsonx] reads an out-of-range literal such as 1e400 as infinity *)
  let* timeout_s =
    field "timeout_s" ~what:"a finite number"
      (fun v ->
        match Jsonx.get_float v with
        | Some t when Float.is_finite t -> Some (Some t)
        | _ -> None)
      ~default:None json
  in
  match Vp_machine.Descr.check_width width with
  | Error msg -> Error (reject "bad_request" "%s" msg)
  | Ok _ when not (threshold >= 0.0 && threshold <= 1.0) ->
      Error (reject "bad_request" "threshold out of range: %g" threshold)
  | Ok width ->
      Ok
        {
          id;
          experiments;
          benchmarks;
          width;
          seed;
          threshold;
          overrides = config_overrides config;
          sweeps;
          csv;
          timeout_s;
        }

let request_of_json json =
  let id = Option.value ~default:"" (Jsonx.string_member "id" json) in
  match Jsonx.string_member "op" json with
  | None -> Error (id, reject "bad_request" "missing \"op\" field")
  | Some "stats" -> Ok (Stats id)
  | Some "ping" -> Ok (Ping id)
  | Some "shutdown" -> Ok (Shutdown id)
  | Some "submit" -> (
      match submit_of_json id json with
      | Ok s -> Ok (Submit s)
      | Error r -> Error (id, r))
  | Some op -> Error (id, reject "bad_request" "unknown op %S" op)

let json_of_submit (s : submit) =
  Jsonx.Obj
    ([
       ("op", Jsonx.Str "submit");
       ("id", Jsonx.Str s.id);
       ("experiments", Jsonx.List (List.map (fun e -> Jsonx.Str e) s.experiments));
       ("benchmarks", Jsonx.List (List.map (fun b -> Jsonx.Str b) s.benchmarks));
       ( "config",
         Jsonx.Obj
           ([
              ("width", Jsonx.Int s.width);
              ("seed", Jsonx.Int s.seed);
              ("threshold", Jsonx.Float s.threshold);
            ]
           @ s.overrides) );
       ("format", Jsonx.Str (if s.csv then "csv" else "ascii"));
     ]
    @ (match s.sweeps with
      | [] -> []
      | sweeps ->
          [
            ( "sweeps",
              Jsonx.Obj
                (List.map
                   (fun (name, points) ->
                     ( name,
                       Jsonx.List
                         (List.map
                            (fun (label, overrides) ->
                              Jsonx.Obj
                                [
                                  ("label", Jsonx.Str label);
                                  ("config", Jsonx.Obj overrides);
                                ])
                            points) ))
                   sweeps) );
          ])
    @
    match s.timeout_s with
    | None -> []
    | Some t -> [ ("timeout_s", Jsonx.Float t) ])

(* --- response frames --- *)

let event ~id ~event fields =
  Jsonx.Obj ((("id", Jsonx.Str id) :: ("event", Jsonx.Str event) :: fields))

let accepted ~id ~artifacts ~queue_depth =
  event ~id ~event:"accepted"
    [
      ("artifacts", Jsonx.List (List.map (fun a -> Jsonx.Str a) artifacts));
      ("queue_depth", Jsonx.Int queue_depth);
    ]

let result ~id ~artifact ~data =
  event ~id ~event:"result"
    [ ("artifact", Jsonx.Str artifact); ("data", Jsonx.Str data) ]

let done_ ~id ~wall_s = event ~id ~event:"done" [ ("wall_s", Jsonx.Float wall_s) ]

let error ~id (r : reject) =
  event ~id ~event:"error"
    [ ("code", Jsonx.Str r.code); ("message", Jsonx.Str r.message) ]
