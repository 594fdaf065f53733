type t = {
  name : string;
  unit_counts : (Unit_class.t * int) list;
  latencies : int array;  (* by [Opcode.index] *)
  issue_width : int;
}

let make ~name ~units ~latency ?issue_width () =
  List.iter
    (fun (_, n) -> if n <= 0 then invalid_arg "Descr.make: unit count <= 0")
    units;
  List.iter
    (fun op ->
      if latency op < 1 then
        invalid_arg
          (Printf.sprintf "Descr.make: latency of %s < 1"
             (Vp_ir.Opcode.mnemonic op)))
    Vp_ir.Opcode.all;
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 units in
  let issue_width = Option.value ~default:total issue_width in
  if issue_width <= 0 then invalid_arg "Descr.make: issue width <= 0";
  {
    name;
    unit_counts = units;
    latencies = Array.of_list (List.map latency Vp_ir.Opcode.all);
    issue_width;
  }

let name t = t.name
let issue_width t = t.issue_width

let units t c =
  match List.assoc_opt c t.unit_counts with Some n -> n | None -> 0

let opcode_latency t op = t.latencies.(Vp_ir.Opcode.index op)
let latency t (op : Vp_ir.Operation.t) = opcode_latency t op.opcode

let default_latency (op : Vp_ir.Opcode.t) =
  match op with
  | Add | Sub | And | Or | Xor | Shift | Move | Cmp -> 1
  | Mul -> 2
  | Div -> 8
  | Load -> 3
  | Store -> 1
  | Fadd -> 2
  | Fmul -> 3
  | Fdiv -> 8
  | Branch -> 1
  | Ld_pred -> 1

let example_latency (op : Vp_ir.Opcode.t) =
  match op with Load -> 3 | _ -> 1

(* The scaled Playdoh presets, by issue width: the only widths the
   machine model has unit mixes for. *)
let presets =
  [
    ( 2,
      [ (Unit_class.Integer, 1); (Unit_class.Memory, 1);
        (Unit_class.Float, 1); (Unit_class.Branch, 1) ] );
    ( 4,
      [ (Unit_class.Integer, 2); (Unit_class.Memory, 1);
        (Unit_class.Float, 1); (Unit_class.Branch, 1) ] );
    ( 8,
      [ (Unit_class.Integer, 4); (Unit_class.Memory, 2);
        (Unit_class.Float, 2); (Unit_class.Branch, 1) ] );
    ( 16,
      [ (Unit_class.Integer, 8); (Unit_class.Memory, 4);
        (Unit_class.Float, 3); (Unit_class.Branch, 1) ] );
  ]

let widths = List.map fst presets

let unsupported width =
  Printf.sprintf "unsupported width %d (supported: %s)" width
    (String.concat ", " (List.map string_of_int widths))

let check_width width =
  if List.mem width widths then Ok width else Error (unsupported width)

let playdoh ~width =
  match List.assoc_opt width presets with
  | Some units ->
      make
        ~name:(Printf.sprintf "playdoh-%dw" width)
        ~units ~latency:default_latency ~issue_width:width ()
  | None -> invalid_arg ("Descr.playdoh: " ^ unsupported width)

let example_machine =
  make ~name:"example-4w"
    ~units:
      [ (Unit_class.Integer, 2); (Unit_class.Memory, 1);
        (Unit_class.Float, 1); (Unit_class.Branch, 1) ]
    ~latency:example_latency ~issue_width:4 ()

let fits t ~total ~per_class (op : Vp_ir.Operation.t) =
  let c = Unit_class.of_opcode op.opcode in
  total < t.issue_width && per_class c < units t c

let pp ppf t =
  Format.fprintf ppf "@[<h>%s: width %d," t.name t.issue_width;
  List.iter
    (fun c ->
      let n = units t c in
      if n > 0 then Format.fprintf ppf " %d %a" n Unit_class.pp c)
    Unit_class.all;
  Format.fprintf ppf "@]"
