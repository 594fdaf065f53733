type weighted_block = { block : Block.t; count : int }

type t = { name : string; blocks : weighted_block array }

let create ~name blocks =
  if blocks = [] then invalid_arg "Program.create: no blocks";
  List.iter
    (fun { count; _ } ->
      if count < 0 then invalid_arg "Program.create: negative count")
    blocks;
  { name; blocks = Array.of_list blocks }

let name t = t.name
let blocks t = Array.copy t.blocks
let num_blocks t = Array.length t.blocks

let nth t i =
  if i < 0 || i >= num_blocks t then invalid_arg "Program.nth: out of range";
  t.blocks.(i)

let total_operations t =
  Array.fold_left (fun acc wb -> acc + Block.size wb.block) 0 t.blocks

let total_dynamic_operations t =
  Array.fold_left
    (fun acc wb -> acc + (Block.size wb.block * wb.count))
    0 t.blocks

let pp ppf t =
  Format.fprintf ppf "@[<v>program %s (%d blocks)@ " t.name (num_blocks t);
  Array.iter
    (fun wb ->
      Format.fprintf ppf "[count %d] %a@ " wb.count Block.pp wb.block)
    t.blocks;
  Format.fprintf ppf "@]"
