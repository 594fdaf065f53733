type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- printing --- *)

(* Runs of bytes that need no escaping are copied whole; only quotes,
   backslashes and control bytes are written one at a time. *)
let escape_into b s =
  let hex = "0123456789abcdef" in
  let len = String.length s in
  let rec go start i =
    if i = len then Buffer.add_substring b s start (i - start)
    else
      match String.unsafe_get s i with
      | ('"' | '\\' | '\000' .. '\031') as c ->
          Buffer.add_substring b s start (i - start);
          (match c with
          | '"' -> Buffer.add_string b "\\\""
          | '\\' -> Buffer.add_string b "\\\\"
          | '\n' -> Buffer.add_string b "\\n"
          | '\r' -> Buffer.add_string b "\\r"
          | '\t' -> Buffer.add_string b "\\t"
          | c ->
              Buffer.add_string b "\\u00";
              Buffer.add_char b hex.[Char.code c lsr 4];
              Buffer.add_char b hex.[Char.code c land 15]);
          go (i + 1) (i + 1)
      | _ -> go start (i + 1)
  in
  go 0 0

let rec emit b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string b (Printf.sprintf "%.1f" f)
      else Buffer.add_string b (Printf.sprintf "%.17g" f)
  | Str s ->
      Buffer.add_char b '"';
      escape_into b s;
      Buffer.add_char b '"'
  | List xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          emit b x)
        xs;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          escape_into b k;
          Buffer.add_string b "\":";
          emit b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  emit b v;
  Buffer.contents b

(* --- parsing: plain recursive descent --- *)

exception Parse_error of string

(* Frames come from clients and are parsed inside the daemon's select
   loop, so recursion must stay bounded: protocol frames nest about six
   levels deep. *)
let max_depth = 64

let parse_exn s =
  let len = String.length s in
  let pos = ref 0 in
  let error msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> error (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let n = String.length word in
    if !pos + n <= len && String.sub s !pos n = word then begin
      pos := !pos + n;
      value
    end
    else error (Printf.sprintf "expected %s" word)
  in
  let utf8_of_code b code =
    (* minimal encoder; surrogate pairs are not recombined — the protocol
       payloads are tables and identifiers, not astral text *)
    if code < 0x80 then Buffer.add_char b (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= len then error "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents b
      else if c = '\\' then begin
        (if !pos >= len then error "unterminated escape";
         let e = s.[!pos] in
         advance ();
         match e with
         | '"' -> Buffer.add_char b '"'
         | '\\' -> Buffer.add_char b '\\'
         | '/' -> Buffer.add_char b '/'
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'n' -> Buffer.add_char b '\n'
         | 'r' -> Buffer.add_char b '\r'
         | 't' -> Buffer.add_char b '\t'
         | 'u' ->
             if !pos + 4 > len then error "truncated \\u escape";
             let hex = String.sub s !pos 4 in
             pos := !pos + 4;
             let code =
               match int_of_string_opt ("0x" ^ hex) with
               | Some c -> c
               | None -> error "bad \\u escape"
             in
             utf8_of_code b code
         | _ -> error "unknown escape");
        go ()
      end
      else begin
        Buffer.add_char b c;
        go ()
      end
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < len && is_num_char s.[!pos] do
      advance ()
    done;
    let raw = String.sub s start (!pos - start) in
    match int_of_string_opt raw with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt raw with
        | Some f -> Float f
        | None -> error (Printf.sprintf "bad number %S" raw))
  in
  let enter depth =
    if depth >= max_depth then
      error (Printf.sprintf "nesting deeper than %d levels" max_depth);
    advance ()
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> error "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        enter depth;
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else
          let rec items acc =
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List (List.rev (v :: acc))
            | _ -> error "expected ',' or ']'"
          in
          items []
    | Some '{' ->
        enter depth;
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            (k, v)
          in
          let rec fields acc =
            let f = field () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields (f :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev (f :: acc))
            | _ -> error "expected ',' or '}'"
          in
          fields []
    | Some _ -> parse_number ()
  in
  let v = parse_value 0 in
  skip_ws ();
  if !pos <> len then error "trailing garbage";
  v

let parse s =
  match parse_exn s with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* --- accessors --- *)

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let get_string = function Str s -> Some s | _ -> None
let get_int = function Int i -> Some i | _ -> None

let get_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let get_bool = function Bool b -> Some b | _ -> None
let get_list = function List xs -> Some xs | _ -> None

let string_member name v = Option.bind (member name v) get_string
let int_member name v = Option.bind (member name v) get_int
let float_member name v = Option.bind (member name v) get_float
let list_member name v = Option.bind (member name v) get_list
