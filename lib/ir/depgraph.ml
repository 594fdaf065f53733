type kind = Flow | Anti | Output | Mem | Control | Verify

type edge = { src : int; dst : int; kind : kind; delay : int }

type mask = { replaced : bool array; stand_in_latency : int }

type t = {
  block : Block.t;
  lat : int array;
  preds : edge list array;
  succs : edge list array;
}

let block t = t.block
let size t = Block.size t.block
let latency t i = t.lat.(i)
let preds t i = t.preds.(i)
let succs t i = t.succs.(i)

let edges t =
  Array.to_list t.succs |> List.concat
  |> List.sort (fun a b -> compare (a.src, a.dst, a.kind) (b.src, b.dst, b.kind))

let kind_index = function
  | Flow -> 0
  | Anti -> 1
  | Output -> 2
  | Mem -> 3
  | Control -> 4
  | Verify -> 5

let num_kinds = 6

(* Register numbers are non-negative ints and serve as their own hash;
   [Int.hash] is an out-of-line C call that slows [build] by about a
   third. *)
module Itbl = Hashtbl.Make (struct
  include Int

  let hash r = r land max_int
end)

(* The number of register operands the block names: the size of the dense
   register numbering of [build], never a register number. *)
let operands ops =
  Array.fold_left
    (fun acc (op : Operation.t) ->
      acc + List.length op.srcs
      + (match op.guard with Some _ -> 1 | None -> 0)
      + match op.dst with Some _ -> 1 | None -> 0)
    0 ops

let build ?(extra = []) ~latency block =
  let n = Block.size block in
  let ops = Block.ops block in
  let lat = Array.map latency ops in
  let preds = Array.make n [] and succs = Array.make n [] in
  let link e =
    preds.(e.dst) <- e :: preds.(e.dst);
    succs.(e.src) <- e :: succs.(e.src)
  in
  (* Every edge the main loop adds ends at the operation being visited, so
     remembering the last destination of each (src, kind) pair is an exact
     duplicate test. *)
  let stamp = Array.make (n * num_kinds) (-1) in
  let add_edge src dst kind delay =
    assert (src < dst);
    let slot = (src * num_kinds) + kind_index kind in
    if stamp.(slot) <> dst then begin
      stamp.(slot) <- dst;
      link { src; dst; kind; delay }
    end
  in
  (* Registers are numbered 0, 1, ... in order of first mention. *)
  let operands = operands ops in
  let ids = Itbl.create operands in
  let reg r =
    match Itbl.find_opt ids r with
    | Some id -> id
    | None ->
        let id = Itbl.length ids in
        Itbl.add ids r id;
        id
  in
  let last_writer = Array.make operands (-1) in
  let readers_since_write = Array.make operands [] in
  let last_store = ref (-1) and loads_since_store = ref [] in
  Array.iteri
    (fun i op ->
      (* Register dependences. *)
      List.iter
        (fun r ->
          let r = reg r in
          let w = last_writer.(r) in
          if w >= 0 then add_edge w i Flow lat.(w);
          readers_since_write.(r) <- i :: readers_since_write.(r))
        (Operation.reads op);
      (match Operation.writes op with
      | Some r ->
          let r = reg r in
          let w = last_writer.(r) in
          if w >= 0 then
            add_edge w i Output (Int.max 1 (lat.(w) - lat.(i) + 1));
          List.iter
            (fun rd -> if rd <> i then add_edge rd i Anti 0)
            readers_since_write.(r);
          last_writer.(r) <- i;
          readers_since_write.(r) <- []
      | None -> ());
      (* Conservative memory ordering. *)
      if Operation.is_load op then begin
        let s = !last_store in
        if s >= 0 then add_edge s i Mem lat.(s);
        loads_since_store := i :: !loads_since_store
      end;
      if Operation.is_store op then begin
        let s = !last_store in
        if s >= 0 then add_edge s i Mem lat.(s);
        List.iter (fun l -> add_edge l i Mem 1) !loads_since_store;
        last_store := i;
        loads_since_store := []
      end;
      (* Pin the branch behind every other operation. *)
      if Operation.is_branch op then
        for j = 0 to i - 1 do
          add_edge j i Control 0
        done)
    ops;
  (* Extra edges may end anywhere, so their duplicates are found in the
     destination's (short) incoming list instead. *)
  List.iter
    (fun e ->
      if e.src >= e.dst || e.src < 0 || e.dst >= n then
        invalid_arg "Depgraph.build: extra edge must go forward in the block";
      if
        not
          (List.exists
             (fun p -> p.src = e.src && p.kind = e.kind)
             preds.(e.dst))
      then link e)
    extra;
  { block; lat; preds; succs }

let with_block t block =
  let n = size t in
  let rec same i =
    i = n
    ||
    let (a : Operation.t) = Block.op t.block i
    and (b : Operation.t) = Block.op block i in
    Opcode.equal a.opcode b.opcode
    && a.dst = b.dst && a.srcs = b.srcs && a.guard = b.guard
    && same (i + 1)
  in
  if Block.size block <> n || not (same 0) then
    invalid_arg
      "Depgraph.with_block: an operation changed its opcode, registers or \
       guard";
  { t with block }

(* The graph read through [mask]: whether it keeps [e], the latency of
   operation [i], and [e]'s delay, each by [build]'s rule for the block
   with the stand-ins in place. Without a mask, the graph as built. *)
let[@inline] kept mask e =
  match mask with
  | None -> true
  | Some m -> (
      match e.kind with
      | Flow -> not m.replaced.(e.dst)
      | Anti -> not m.replaced.(e.src)
      | Mem -> not (m.replaced.(e.src) || m.replaced.(e.dst))
      | Output | Control | Verify -> true)

let[@inline] lat_in mask t i =
  match mask with
  | Some m when m.replaced.(i) -> m.stand_in_latency
  | Some _ | None -> t.lat.(i)

let[@inline] delay_in mask t e =
  match mask with
  | None -> e.delay
  | Some m -> (
      match e.kind with
      | Flow when m.replaced.(e.src) -> m.stand_in_latency
      | Output when m.replaced.(e.src) || m.replaced.(e.dst) ->
          Int.max 1 (lat_in mask t e.src - lat_in mask t e.dst + 1)
      | Flow | Anti | Output | Mem | Control | Verify -> e.delay)

let earliest ?mask t =
  let n = size t in
  let est = Array.make n 0 in
  let rec arrival acc = function
    | [] -> acc
    | e :: rest ->
        arrival
          (if kept mask e then Int.max acc (est.(e.src) + delay_in mask t e)
           else acc)
          rest
  in
  for i = 0 to n - 1 do
    est.(i) <- arrival 0 t.preds.(i)
  done;
  est

let priority ?mask t =
  let n = size t in
  let prio = Array.make n 0 in
  let rec height acc = function
    | [] -> acc
    | e :: rest ->
        height
          (if kept mask e then Int.max acc (delay_in mask t e + prio.(e.dst))
           else acc)
          rest
  in
  for i = n - 1 downto 0 do
    prio.(i) <- height (lat_in mask t i) t.succs.(i)
  done;
  prio

let critical_path_length t =
  let est = earliest t in
  let len = ref 0 in
  for i = 0 to size t - 1 do
    len := Int.max !len (est.(i) + t.lat.(i))
  done;
  !len

let critical_path ?mask t =
  let prio = priority ?mask t in
  let n = size t in
  if n = 0 then []
  else begin
    (* Start from a source with maximal priority, follow edges that realize
       the priority recurrence. *)
    let start = ref 0 in
    for i = 0 to n - 1 do
      if prio.(i) > prio.(!start) then start := i
    done;
    let rec follow i acc =
      let acc = i :: acc in
      let next =
        List.fold_left
          (fun best e ->
            if kept mask e && delay_in mask t e + prio.(e.dst) = prio.(i)
            then
              match best with
              | Some b when prio.(b) >= prio.(e.dst) -> best
              | _ -> Some e.dst
            else best)
          None t.succs.(i)
      in
      match next with None -> List.rev acc | Some j -> follow j acc
    in
    follow !start []
  end

let transitive_flow next t i =
  let n = size t in
  let mark = Array.make n false in
  let rec go j =
    List.iter
      (fun (e : edge) ->
        if e.kind = Flow then begin
          let k = if next then e.dst else e.src in
          if not mark.(k) then begin
            mark.(k) <- true;
            go k
          end
        end)
      (if next then t.succs.(j) else t.preds.(j))
  in
  go i;
  let acc = ref [] in
  for j = n - 1 downto 0 do
    if mark.(j) then acc := j :: !acc
  done;
  !acc

let flow_dependents t i = transitive_flow true t i
let flow_sources t i = transitive_flow false t i

let pp_kind ppf = function
  | Flow -> Format.pp_print_string ppf "flow"
  | Anti -> Format.pp_print_string ppf "anti"
  | Output -> Format.pp_print_string ppf "out"
  | Mem -> Format.pp_print_string ppf "mem"
  | Control -> Format.pp_print_string ppf "ctl"
  | Verify -> Format.pp_print_string ppf "vfy"

let to_dot ?(highlight = []) t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph dependences {\n  node [shape=box, fontname=\"monospace\"];\n";
  Array.iter
    (fun (op : Operation.t) ->
      let label =
        String.concat "\\n"
          (String.split_on_char '\n' (Format.asprintf "%a" Operation.pp op))
      in
      let fill =
        if List.mem op.id highlight then ", style=filled, fillcolor=lightblue"
        else ""
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\"%s];\n" op.id label fill))
    (Block.ops t.block);
  List.iter
    (fun e ->
      let style =
        match e.kind with
        | Flow -> "solid"
        | Anti | Output -> "dashed"
        | Mem | Control -> "dotted"
        | Verify -> "bold"
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> n%d [style=%s, label=\"%d\"];\n" e.src
           e.dst style e.delay))
    (edges t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun e ->
      Format.fprintf ppf "%d -%a(%d)-> %d@ " e.src pp_kind e.kind e.delay
        e.dst)
    (edges t);
  Format.fprintf ppf "@]"
