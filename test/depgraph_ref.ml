(* Reference dependence-graph builder: the [Hashtbl] implementation that
   [Vp_ir.Depgraph.build] replaced with dense register numbering and a
   (src, kind) stamp, kept as the oracle for test_ir.ml's equivalence
   property. Same edges, same delays, same newest-first list order. *)

open Vp_ir.Depgraph

type t = { lat : int array; preds : edge list array; succs : edge list array }

let build ?(extra = []) ~latency block =
  let n = Vp_ir.Block.size block in
  let ops = Vp_ir.Block.ops block in
  let lat = Array.map latency ops in
  let preds = Array.make n [] and succs = Array.make n [] in
  let seen = Hashtbl.create 64 in
  let add_edge src dst kind delay =
    assert (src < dst);
    if not (Hashtbl.mem seen (src, dst, kind)) then begin
      Hashtbl.replace seen (src, dst, kind) ();
      let e = { src; dst; kind; delay } in
      preds.(dst) <- e :: preds.(dst);
      succs.(src) <- e :: succs.(src)
    end
  in
  let last_writer = Hashtbl.create 32 in
  let readers_since_write = Hashtbl.create 32 in
  let last_store = ref None and loads_since_store = ref [] in
  Array.iteri
    (fun i op ->
      (* Register dependences. *)
      List.iter
        (fun r ->
          (match Hashtbl.find_opt last_writer r with
          | Some w -> add_edge w i Flow lat.(w)
          | None -> ());
          let rs =
            Option.value ~default:[] (Hashtbl.find_opt readers_since_write r)
          in
          Hashtbl.replace readers_since_write r (i :: rs))
        (Vp_ir.Operation.reads op);
      (match Vp_ir.Operation.writes op with
      | Some r ->
          (match Hashtbl.find_opt last_writer r with
          | Some w ->
              add_edge w i Output (max 1 (lat.(w) - lat.(i) + 1))
          | None -> ());
          List.iter
            (fun rd -> if rd <> i then add_edge rd i Anti 0)
            (Option.value ~default:[]
               (Hashtbl.find_opt readers_since_write r));
          Hashtbl.replace last_writer r i;
          Hashtbl.replace readers_since_write r []
      | None -> ());
      (* Conservative memory ordering. *)
      if Vp_ir.Operation.is_load op then begin
        (match !last_store with
        | Some s -> add_edge s i Mem lat.(s)
        | None -> ());
        loads_since_store := i :: !loads_since_store
      end;
      if Vp_ir.Operation.is_store op then begin
        (match !last_store with
        | Some s -> add_edge s i Mem lat.(s)
        | None -> ());
        List.iter (fun l -> add_edge l i Mem 1) !loads_since_store;
        last_store := Some i;
        loads_since_store := []
      end;
      (* Pin the branch behind every other operation. *)
      if Vp_ir.Operation.is_branch op then
        for j = 0 to i - 1 do
          add_edge j i Control 0
        done)
    ops;
  List.iter
    (fun e ->
      if e.src >= e.dst || e.src < 0 || e.dst >= n then
        invalid_arg "Depgraph.build: extra edge must go forward in the block";
      add_edge e.src e.dst e.kind e.delay)
    extra;
  { lat; preds; succs }
