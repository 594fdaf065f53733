(* Reading a telemetry document in tests: [parse] what a run wrote, then
   read a leaf by its dotted path, e.g. ["spec_eval.prep_memo_hits"]. *)

module J = Vp_util.Jsonx

(* The last non-empty line of [text], parsed: a run's stderr ends with
   the document, and a [--telemetry FILE] holds only it. *)
let parse text =
  match
    List.rev
      (List.filter
         (fun l -> String.trim l <> "")
         (String.split_on_char '\n' text))
  with
  | [] -> Alcotest.fail "no telemetry document"
  | last :: _ -> (
      match J.parse last with
      | Ok doc -> doc
      | Error e -> Alcotest.failf "telemetry is not JSON (%s): %s" e last)

let find doc path =
  List.fold_left
    (fun json key ->
      match J.member key json with
      | Some v -> v
      | None -> Alcotest.failf "telemetry has no %s" path)
    doc
    (String.split_on_char '.' path)

let int doc path =
  match find doc path with
  | J.Int n -> n
  | v -> Alcotest.failf "telemetry %s is not an integer: %s" path (J.to_string v)

let float doc path =
  match J.get_float (find doc path) with
  | Some f -> f
  | None -> Alcotest.failf "telemetry %s is not a number" path
