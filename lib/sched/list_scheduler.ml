module Iset = Set.Make (Int)

let schedule descr graph =
  let n = Vp_ir.Depgraph.size graph in
  let block = Vp_ir.Depgraph.block graph in
  let prio = Vp_ir.Depgraph.priority graph in
  let issue = Array.make n (-1) in
  let remaining = ref n in
  let npreds = Array.make n 0 in
  let ready_time = Array.make n 0 in
  for i = 0 to n - 1 do
    npreds.(i) <- List.length (Vp_ir.Depgraph.preds graph i)
  done;
  (* Scheduling order is fixed up front — best priority first, id as
     tie-break — so "iterate the ready operations in order" becomes
     "iterate a set of ranks". [order] maps rank -> id, [rank] id -> rank. *)
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      match compare prio.(b) prio.(a) with 0 -> compare a b | c -> c)
    order;
  let rank = Array.make n 0 in
  Array.iteri (fun r i -> rank.(i) <- r) order;
  (* Ranks of released operations: every predecessor has issued (their
     [ready_time] may still lie ahead). Maintained incrementally on issue
     instead of rescanning all n operations every cycle. *)
  let released = ref Iset.empty in
  for i = 0 to n - 1 do
    if npreds.(i) = 0 then released := Iset.add rank.(i) !released
  done;
  (* Operations issued this cycle, per unit class. *)
  let per_class = Array.make Vp_machine.Unit_class.count 0 in
  let class_count c = per_class.(Vp_machine.Unit_class.index c) in
  let cycle = ref 0 in
  while !remaining > 0 do
    (* The set is persistent, so the cycle-start value is a free snapshot:
       operations released while issuing (zero-delay edges) join [released]
       but are not visited until the next cycle, exactly like the old
       per-cycle rescan. Snapshot members are never re-released or delayed
       by this cycle's issues — all their predecessors already issued. *)
    let snapshot = !released in
    let total = ref 0 in
    Array.fill per_class 0 Vp_machine.Unit_class.count 0;
    Iset.iter
      (fun r ->
        let i = order.(r) in
        if ready_time.(i) <= !cycle then begin
          let op = Vp_ir.Block.op block i in
          if
            Vp_machine.Descr.fits descr ~total:!total ~per_class:class_count
              op
          then begin
            issue.(i) <- !cycle;
            incr total;
            let c =
              Vp_machine.Unit_class.index
                (Vp_machine.Unit_class.of_opcode op.opcode)
            in
            per_class.(c) <- per_class.(c) + 1;
            decr remaining;
            released := Iset.remove r !released;
            List.iter
              (fun (e : Vp_ir.Depgraph.edge) ->
                npreds.(e.dst) <- npreds.(e.dst) - 1;
                ready_time.(e.dst) <-
                  Int.max ready_time.(e.dst) (!cycle + e.delay);
                if npreds.(e.dst) = 0 then
                  released := Iset.add rank.(e.dst) !released)
              (Vp_ir.Depgraph.succs graph i)
          end
        end)
      snapshot;
    if !total > 0 then incr cycle
    else
      (* An idle cycle changes no state, so skip straight to the first
         cycle at which a released operation's delays have elapsed. (An
         operation that fits no instruction at all never issues; keep
         stepping so that case behaves as it always did.) *)
      let next =
        Iset.fold
          (fun r acc -> Int.min acc ready_time.(order.(r)))
          !released max_int
      in
      cycle := Int.max (!cycle + 1) next
  done;
  Schedule.make descr graph ~issue

let schedule_block descr block =
  let graph =
    Vp_ir.Depgraph.build ~latency:(Vp_machine.Descr.latency descr) block
  in
  schedule descr graph

let sequential_length descr block =
  let graph =
    Vp_ir.Depgraph.build ~latency:(Vp_machine.Descr.latency descr) block
  in
  let n = Vp_ir.Depgraph.size graph in
  let issue = Array.make n 0 in
  let len = ref 0 in
  for i = 0 to n - 1 do
    let earliest = if i = 0 then 0 else issue.(i - 1) + 1 in
    issue.(i) <- earliest;
    List.iter
      (fun (e : Vp_ir.Depgraph.edge) ->
        issue.(i) <- Int.max issue.(i) (issue.(e.src) + e.delay))
      (Vp_ir.Depgraph.preds graph i);
    len := Int.max !len (issue.(i) + Vp_ir.Depgraph.latency graph i)
  done;
  !len
