type t = {
  block : Vp_ir.Block.t;
  results : int array;
  operands : int list array;
  executed : bool array;
  final_regs : (int * int) list;
  stores : (int * int) list;
}

let live_in r = (1009 * r) + 77

let run block ~load_values ~live_in =
  let n = Vp_ir.Block.size block in
  let regs = Hashtbl.create 32 in
  let touched = Hashtbl.create 32 in
  let read r =
    Hashtbl.replace touched r ();
    match Hashtbl.find_opt regs r with
    | Some v -> v
    | None ->
        let v = live_in r in
        Hashtbl.replace regs r v;
        v
  in
  let write r v =
    Hashtbl.replace touched r ();
    Hashtbl.replace regs r v
  in
  let results = Array.make n 0 in
  let operands = Array.make n [] in
  let executed = Array.make n true in
  let stores = ref [] in
  for i = 0 to n - 1 do
    let op = Vp_ir.Block.op block i in
    let srcs = List.map read op.srcs in
    operands.(i) <- srcs;
    let guard_on =
      match op.guard with
      | None -> true
      | Some (p, polarity) -> read p <> 0 = polarity
    in
    if not guard_on then executed.(i) <- false (* predicated off *)
    else
    match op.opcode with
    | Load ->
        let v = load_values i in
        results.(i) <- v;
        write (Option.get op.dst) v
    | Store ->
        (match srcs with
        | [ addr; v ] -> stores := (addr, v) :: !stores
        | _ -> assert false)
    | Branch -> ()
    | Ld_pred ->
        invalid_arg "Reference.run: Ld_pred in an untransformed block"
    | Add | Sub | Mul | Div | And | Or | Xor | Shift | Move | Cmp | Fadd
    | Fmul | Fdiv ->
        let v = Alu.eval op.opcode srcs in
        results.(i) <- v;
        write (Option.get op.dst) v
  done;
  let final_regs =
    Hashtbl.fold (fun r () acc -> (r, read r) :: acc) touched []
    |> List.sort compare
  in
  { block; results; operands; executed; final_regs; stores = List.rev !stores }
