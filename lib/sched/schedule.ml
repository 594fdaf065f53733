type t = {
  descr : Vp_machine.Descr.t;
  graph : Vp_ir.Depgraph.t;
  issue : int array;
}

let make descr graph ~issue =
  if Array.length issue <> Vp_ir.Depgraph.size graph then
    invalid_arg "Schedule.make: issue array size mismatch";
  Array.iter
    (fun c -> if c < 0 then invalid_arg "Schedule.make: negative cycle")
    issue;
  { descr; graph; issue = Array.copy issue }

let descr t = t.descr
let graph t = t.graph
let block t = Vp_ir.Depgraph.block t.graph

let issue_cycle t i =
  if i < 0 || i >= Array.length t.issue then
    invalid_arg "Schedule.issue_cycle: out of range";
  t.issue.(i)

let completion_cycle t i = issue_cycle t i + Vp_ir.Depgraph.latency t.graph i

let length t =
  let len = ref 0 in
  Array.iteri
    (fun i c -> len := Int.max !len (c + Vp_ir.Depgraph.latency t.graph i))
    t.issue;
  !len

let num_instructions t =
  Array.fold_left (fun acc c -> Int.max acc (c + 1)) 0 t.issue

let at_cycle t c =
  let ops = ref [] in
  for i = Array.length t.issue - 1 downto 0 do
    if t.issue.(i) = c then ops := Vp_ir.Block.op (block t) i :: !ops
  done;
  !ops

let instructions t =
  let n = num_instructions t in
  let insns = Array.make n [] in
  for i = Array.length t.issue - 1 downto 0 do
    let c = t.issue.(i) in
    insns.(c) <- Vp_ir.Block.op (block t) i :: insns.(c)
  done;
  insns

let validate t =
  let exception Bad of string in
  try
    (* Dependence delays. *)
    List.iter
      (fun (e : Vp_ir.Depgraph.edge) ->
        if t.issue.(e.dst) < t.issue.(e.src) + e.delay then
          raise
            (Bad
               (Printf.sprintf
                  "edge %d->%d (delay %d) violated: issue %d then %d" e.src
                  e.dst e.delay t.issue.(e.src) t.issue.(e.dst))))
      (Vp_ir.Depgraph.edges t.graph);
    (* Per-cycle resources. *)
    Array.iteri
      (fun c ops ->
        let total = List.length ops in
        if total > Vp_machine.Descr.issue_width t.descr then
          raise (Bad (Printf.sprintf "cycle %d: %d ops > issue width" c total));
        List.iter
          (fun cls ->
            let used =
              List.length
                (List.filter
                   (fun (op : Vp_ir.Operation.t) ->
                     Vp_machine.Unit_class.equal
                       (Vp_machine.Unit_class.of_opcode op.opcode)
                       cls)
                   ops)
            in
            if used > Vp_machine.Descr.units t.descr cls then
              raise
                (Bad
                   (Printf.sprintf "cycle %d: %d %s ops > %d units" c used
                      (Vp_machine.Unit_class.name cls)
                      (Vp_machine.Descr.units t.descr cls))))
          Vp_machine.Unit_class.all)
      (instructions t);
    Ok ()
  with Bad msg -> Error msg

let pp ppf t =
  Format.fprintf ppf "@[<v>schedule of %s on %s (length %d):@ "
    (Vp_ir.Block.label (block t))
    (Vp_machine.Descr.name t.descr)
    (length t);
  Array.iteri
    (fun c ops ->
      Format.fprintf ppf "cycle %2d: " c;
      (match ops with
      | [] -> Format.fprintf ppf "(nop)"
      | ops ->
          Format.pp_print_list
            ~pp_sep:(fun ppf () -> Format.fprintf ppf " || ")
            Vp_ir.Operation.pp ppf ops);
      Format.fprintf ppf "@ ")
    (instructions t);
  Format.fprintf ppf "@]"
