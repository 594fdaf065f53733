type t = Integer | Memory | Float | Branch

let all = [ Integer; Memory; Float; Branch ]

let of_opcode (op : Vp_ir.Opcode.t) =
  match op with
  | Load | Store -> Memory
  | Fadd | Fmul | Fdiv -> Float
  | Branch -> Branch
  | Add | Sub | Mul | Div | And | Or | Xor | Shift | Move | Cmp | Ld_pred ->
      Integer

let count = List.length all

let index = function Integer -> 0 | Memory -> 1 | Float -> 2 | Branch -> 3

let name = function
  | Integer -> "int"
  | Memory -> "mem"
  | Float -> "float"
  | Branch -> "branch"

let pp ppf t = Format.pp_print_string ppf (name t)
let equal (a : t) b = a = b
