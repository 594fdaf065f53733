type align = Left | Right

type row = Cells of string list | Separator

type t = {
  title : string option;
  headers : string list;
  aligns : align list;
  mutable rows : row list;  (* reversed *)
}

let create ?title columns =
  { title; headers = List.map fst columns; aligns = List.map snd columns;
    rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.headers then
    invalid_arg "Table.add_row: arity mismatch";
  t.rows <- Cells cells :: t.rows

let add_separator t = t.rows <- Separator :: t.rows

let render t =
  let rows = List.rev t.rows in
  let widths = Array.of_list (List.map String.length t.headers) in
  List.iter
    (function
      | Separator -> ()
      | Cells cells ->
          List.iteri
            (fun i c -> widths.(i) <- max widths.(i) (String.length c))
            cells)
    rows;
  let buf = Buffer.create 256 in
  let pad align width s =
    let fill = String.make (width - String.length s) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s
  in
  let rule () =
    Array.iteri
      (fun i w ->
        Buffer.add_string buf (String.make w '-');
        if i < Array.length widths - 1 then Buffer.add_string buf "-+-")
      widths;
    Buffer.add_char buf '\n'
  in
  let emit_cells aligns cells =
    List.iteri
      (fun i (a, c) ->
        Buffer.add_string buf (pad a widths.(i) c);
        if i < Array.length widths - 1 then Buffer.add_string buf " | ")
      (List.combine aligns cells);
    Buffer.add_char buf '\n'
  in
  (match t.title with
  | Some title ->
      Buffer.add_string buf title;
      Buffer.add_char buf '\n'
  | None -> ());
  emit_cells (List.map (fun _ -> Left) t.headers) t.headers;
  rule ();
  List.iter
    (function
      | Separator -> rule ()
      | Cells cells -> emit_cells t.aligns cells)
    rows;
  Buffer.contents buf

let csv_cell c =
  if String.exists (fun ch -> ch = ',' || ch = '"' || ch = '\n') c then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' c) ^ "\""
  else c

let render_csv t =
  let buf = Buffer.create 256 in
  let emit cells =
    Buffer.add_string buf (String.concat "," (List.map csv_cell cells));
    Buffer.add_char buf '\n'
  in
  emit t.headers;
  List.iter
    (function Separator -> () | Cells cells -> emit cells)
    (List.rev t.rows);
  Buffer.contents buf

let unit_header format header unit =
  match format with `Ascii -> header | `Csv -> header ^ " [" ^ unit ^ "]"

let unit_cell format digits unit =
  match format with `Ascii -> digits ^ unit | `Csv -> digits

let pp ppf t = Format.pp_print_string ppf (render t)
let cell_f x = Printf.sprintf "%.2f" x
