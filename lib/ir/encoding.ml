let opcode_of_code c =
  match List.nth_opt Opcode.all c with
  | Some o -> o
  | None -> invalid_arg "Encoding.decode_op: bad opcode"

let none_reg = 0xFF

let field ~name ~bits v =
  if v < 0 || v >= 1 lsl bits then
    invalid_arg (Printf.sprintf "Encoding: %s = %d does not fit %d bits" name v bits);
  v

let reg_field ~name = function
  | None -> none_reg
  | Some r ->
      if r < 0 || r >= none_reg then
        invalid_arg (Printf.sprintf "Encoding: %s register %d out of range" name r);
      r

let mask_of_bits bits =
  List.fold_left
    (fun acc b ->
      if b < 0 || b > 63 then
        invalid_arg "Encoding: conditional-clear bit beyond 63";
      Int64.logor acc (Int64.shift_left 1L b))
    0L bits

let bits_of_mask mask =
  let rec go b acc =
    if b > 63 then List.rev acc
    else
      go (b + 1)
        (if Int64.logand mask (Int64.shift_left 1L b) <> 0L then b :: acc
         else acc)
  in
  go 0 []

let encode_op (op : Operation.t) =
  let src n = List.nth_opt op.srcs n in
  let tag, extra_fields, extension =
    match op.form with
    (* [extra] lands at absolute bit 32: rel-extra bit k = abs bit 32+k *)
    | Operation.Normal -> (0, 0, None)
    | Operation.Non_speculative -> (0, 1, None)
    | Operation.Ldpred_of { sync_bit; checked_by } ->
        ( 1,
          (field ~name:"sync bit" ~bits:6 sync_bit lsl 1)
          lor (field ~name:"checked_by" ~bits:8 checked_by lsl 7),
          None )
    | Operation.Speculative { sync_bit } ->
        (2, field ~name:"sync bit" ~bits:6 sync_bit lsl 1, None)
    | Operation.Check { pred_bit; spec_bits } ->
        ( 3,
          field ~name:"pred bit" ~bits:6 pred_bit lsl 1,
          Some (mask_of_bits spec_bits) )
  in
  let low =
    Opcode.index op.opcode
    lor (reg_field ~name:"destination" op.dst lsl 6)
    lor (reg_field ~name:"source 1" (src 0) lsl 14)
    lor (reg_field ~name:"source 2" (src 1) lsl 22)
  in
  (* [low] covers bits 0..29; tag sits at 30..31, form fields from 32;
     the guard occupies bits 47..55 (register + polarity). *)
  let guard_bits =
    match op.guard with
    | None -> none_reg
    | Some (p, polarity) ->
        reg_field ~name:"guard" (Some p) lor if polarity then 0x100 else 0
  in
  let word =
    Int64.logor
      (Int64.logor
         (Int64.of_int low)
         (Int64.shift_left (Int64.of_int (tag lor (extra_fields lsl 2))) 30))
      (Int64.shift_left (Int64.of_int guard_bits) 47)
  in
  match extension with None -> [ word ] | Some ext -> [ word; ext ]

let decode_op ~id words =
  match words with
  | [] -> invalid_arg "Encoding.decode_op: empty word stream"
  | word :: rest ->
      let bits lo len =
        Int64.to_int
          (Int64.logand
             (Int64.shift_right_logical word lo)
             (Int64.sub (Int64.shift_left 1L len) 1L))
      in
      let opcode = opcode_of_code (bits 0 6) in
      let reg v = if v = none_reg then None else Some v in
      let dst = reg (bits 6 8) in
      let srcs =
        List.filter_map reg [ bits 14 8; bits 22 8 ]
        |> List.filteri (fun i _ -> i < Opcode.num_sources opcode)
      in
      let tag = bits 30 2 in
      let form, rest =
        match tag with
        | 0 -> ((if bits 32 1 = 1 then Operation.Non_speculative else Operation.Normal), rest)
        | 1 ->
            ( Operation.Ldpred_of
                { sync_bit = bits 33 6; checked_by = bits 39 8 },
              rest )
        | 2 -> (Operation.Speculative { sync_bit = bits 33 6 }, rest)
        | 3 -> (
            match rest with
            | ext :: rest ->
                ( Operation.Check
                    { pred_bit = bits 33 6; spec_bits = bits_of_mask ext },
                  rest )
            | [] -> invalid_arg "Encoding.decode_op: check without extension")
        | _ -> assert false
      in
      let guard =
        let g = bits 47 9 in
        if g land 0xFF = none_reg then None
        else Some (g land 0xFF, g land 0x100 <> 0)
      in
      let base =
        match dst with
        | Some d -> Operation.make ~dst:d ~srcs ?guard ~id opcode
        | None -> Operation.make ~srcs ?guard ~id opcode
      in
      (Operation.with_form base form, rest)

let encode_instruction ~wait_mask ops =
  if List.length ops > 15 then
    invalid_arg "Encoding.encode_instruction: more than 15 operations";
  let mask =
    List.fold_left
      (fun acc b ->
        if b > 31 then
          invalid_arg "Encoding.encode_instruction: wait bit beyond 31";
        acc lor (1 lsl b))
      0
      (Vp_util.Bitset.elements wait_mask)
  in
  let header =
    Int64.logor
      (Int64.of_int (List.length ops))
      (Int64.shift_left (Int64.of_int mask) 4)
  in
  header :: List.concat_map encode_op ops

let decode_instruction = function
  | [] -> invalid_arg "Encoding.decode_instruction: empty"
  | header :: words ->
      let count = Int64.to_int (Int64.logand header 0xFL) in
      let mask =
        Int64.to_int (Int64.logand (Int64.shift_right_logical header 4) 0xFFFFFFFFL)
      in
      let wait_mask = Vp_util.Bitset.create () in
      for b = 0 to 31 do
        if mask land (1 lsl b) <> 0 then Vp_util.Bitset.set wait_mask b
      done;
      let rec take id words acc =
        if id >= count then
          if words = [] then List.rev acc
          else invalid_arg "Encoding.decode_instruction: trailing words"
        else begin
          let op, rest = decode_op ~id words in
          take (id + 1) rest (op :: acc)
        end
      in
      (wait_mask, take 0 words [])

let instruction_bytes ops =
  8 * List.length (encode_instruction ~wait_mask:(Vp_util.Bitset.create ()) ops)

let block_bytes ~schedule_instructions =
  Array.fold_left
    (fun acc ops -> acc + instruction_bytes ops)
    0 schedule_instructions
