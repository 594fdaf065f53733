type form =
  | Normal
  | Ldpred_of of { sync_bit : int; checked_by : int }
  | Check of { pred_bit : int; spec_bits : int list }
  | Speculative of { sync_bit : int }
  | Non_speculative

type t = {
  id : int;
  opcode : Opcode.t;
  dst : int option;
  srcs : int list;
  guard : (int * bool) option;
  stream : int option;
  form : form;
}

let make ?dst ?(srcs = []) ?guard ?stream ~id opcode =
  (match (Opcode.writes_register opcode, dst) with
  | true, None ->
      invalid_arg
        (Printf.sprintf "Operation.make: %s needs a destination"
           (Opcode.mnemonic opcode))
  | false, Some _ ->
      invalid_arg
        (Printf.sprintf "Operation.make: %s writes no register"
           (Opcode.mnemonic opcode))
  | _ -> ());
  if List.length srcs <> Opcode.num_sources opcode then
    invalid_arg
      (Printf.sprintf "Operation.make: %s takes %d sources, got %d"
         (Opcode.mnemonic opcode)
         (Opcode.num_sources opcode)
         (List.length srcs));
  (match dst with
  | Some r when r < 0 ->
      invalid_arg "Operation.make: negative destination register"
  | _ -> ());
  if List.exists (fun r -> r < 0) srcs then
    invalid_arg "Operation.make: negative source register";
  (match guard with
  | Some (p, _) when p < 0 ->
      invalid_arg "Operation.make: negative guard register"
  | _ -> ());
  { id; opcode; dst; srcs; guard; stream; form = Normal }

let with_form t form = { t with form }
let with_id t id = { t with id }
let is_load t = Opcode.is_load t.opcode
let is_store t = Opcode.is_store t.opcode
let is_branch t = Opcode.is_branch t.opcode
let writes t = t.dst
let reads t =
  match t.guard with Some (p, _) -> p :: t.srcs | None -> t.srcs
let is_speculative t = match t.form with Speculative _ -> true | _ -> false

let sets_sync_bit t =
  match t.form with
  | Ldpred_of { sync_bit; _ } | Speculative { sync_bit } -> Some sync_bit
  | Normal | Check _ | Non_speculative -> None

let equal a b =
  a.id = b.id
  && Opcode.equal a.opcode b.opcode
  && a.dst = b.dst && a.srcs = b.srcs && a.stream = b.stream && a.form = b.form

let pp_form ppf = function
  | Normal -> ()
  | Ldpred_of { sync_bit; checked_by } ->
      Format.fprintf ppf " (ldpred sets b%d, checked by %d)" sync_bit
        checked_by
  | Check { pred_bit; spec_bits } ->
      Format.fprintf ppf " (check b%d%s)" pred_bit
        (match spec_bits with
        | [] -> ""
        | bits ->
            "; spec "
            ^ String.concat "," (List.map (Printf.sprintf "b%d") bits))
  | Speculative { sync_bit } -> Format.fprintf ppf " (spec sets b%d)" sync_bit
  | Non_speculative -> Format.fprintf ppf " (nonspec)"

let pp ppf t =
  let guard =
    match t.guard with
    | Some (p, true) -> Printf.sprintf "(r%d) " p
    | Some (p, false) -> Printf.sprintf "(!r%d) " p
    | None -> ""
  in
  let dst =
    match t.dst with Some r -> Printf.sprintf "r%d <- " r | None -> ""
  in
  let srcs = String.concat ", " (List.map (Printf.sprintf "r%d") t.srcs) in
  let stream =
    match t.stream with Some s -> Printf.sprintf " @s%d" s | None -> ""
  in
  Format.fprintf ppf "%d: %s%s%a %s%s%a" t.id guard dst Opcode.pp t.opcode
    srcs stream pp_form t.form
