type t =
  | Add
  | Sub
  | Mul
  | Div
  | And
  | Or
  | Xor
  | Shift
  | Move
  | Cmp
  | Load
  | Store
  | Fadd
  | Fmul
  | Fdiv
  | Branch
  | Ld_pred

let all =
  [ Add; Sub; Mul; Div; And; Or; Xor; Shift; Move; Cmp; Load; Store; Fadd;
    Fmul; Fdiv; Branch; Ld_pred ]

let index = function
  | Add -> 0 | Sub -> 1 | Mul -> 2 | Div -> 3 | And -> 4 | Or -> 5 | Xor -> 6
  | Shift -> 7 | Move -> 8 | Cmp -> 9 | Load -> 10 | Store -> 11 | Fadd -> 12
  | Fmul -> 13 | Fdiv -> 14 | Branch -> 15 | Ld_pred -> 16

let is_memory = function Load | Store -> true | _ -> false
let is_load = function Load -> true | _ -> false
let is_store = function Store -> true | _ -> false
let is_branch = function Branch -> true | _ -> false
let has_side_effect op = is_store op || is_branch op

let writes_register = function
  | Store | Branch -> false
  | Add | Sub | Mul | Div | And | Or | Xor | Shift | Move | Cmp | Load | Fadd
  | Fmul | Fdiv | Ld_pred ->
      true

let num_sources = function
  | Move | Load -> 1
  | Store -> 2 (* address, value *)
  | Branch -> 1 (* predicate *)
  | Ld_pred -> 0
  | Add | Sub | Mul | Div | And | Or | Xor | Shift | Cmp | Fadd | Fmul | Fdiv
    ->
      2

let mnemonic = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shift -> "shift"
  | Move -> "move"
  | Cmp -> "cmp"
  | Load -> "load"
  | Store -> "store"
  | Fadd -> "fadd"
  | Fmul -> "fmul"
  | Fdiv -> "fdiv"
  | Branch -> "branch"
  | Ld_pred -> "ldpred"

let pp ppf t = Format.pp_print_string ppf (mnemonic t)
let equal (a : t) b = a = b
