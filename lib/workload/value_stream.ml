type shape =
  | Constant of int
  | Strided of { base : int; stride : int }
  | Periodic of { period : int }
  | Noisy_periodic of { period : int; noise : float }
  | Mostly_strided of { base : int; stride : int; jump_probability : float }
  | Pointer_chain of { nodes : int }
  | Random of { range : int }

type state =
  | Const of int
  | Arith of { mutable current : int; stride : int }
  | Cycle of { values : int array; mutable pos : int }
  | Noisy_cycle of {
      values : int array;
      mutable pos : int;
      noise : float;
      rng : Vp_util.Rng.t;
    }
  | Noisy of {
      mutable current : int;
      stride : int;
      jump_probability : float;
      rng : Vp_util.Rng.t;
    }
  | Chain of { succ : int array; mutable node : int }
  | Uniform of { range : int; rng : Vp_util.Rng.t }

type t = { shape : shape; state : state }

let create rng shape =
  let state =
    match shape with
    | Constant v -> Const v
    | Strided { base; stride } -> Arith { current = base; stride }
    | Periodic { period } ->
        if period < 1 then invalid_arg "Value_stream.create: period < 1";
        let values =
          Array.init period (fun _ -> Vp_util.Rng.int rng 1_000_000)
        in
        Cycle { values; pos = 0 }
    | Noisy_periodic { period; noise } ->
        if period < 1 then invalid_arg "Value_stream.create: period < 1";
        let values =
          Array.init period (fun _ -> Vp_util.Rng.int rng 1_000_000)
        in
        Noisy_cycle { values; pos = 0; noise; rng = Vp_util.Rng.split rng }
    | Mostly_strided { base; stride; jump_probability } ->
        Noisy
          {
            current = base;
            stride;
            jump_probability;
            rng = Vp_util.Rng.split rng;
          }
    | Pointer_chain { nodes } ->
        if nodes < 1 then invalid_arg "Value_stream.create: nodes < 1";
        (* A single cycle through all nodes: a random permutation applied as
           successor function of a linked list laid out at addresses 16*i. *)
        let order = Array.init nodes (fun i -> i) in
        Vp_util.Rng.shuffle rng order;
        let succ = Array.make nodes 0 in
        Array.iteri
          (fun pos node -> succ.(node) <- order.((pos + 1) mod nodes))
          order;
        Chain { succ; node = order.(0) }
    | Random { range } ->
        if range < 1 then invalid_arg "Value_stream.create: range < 1";
        Uniform { range; rng = Vp_util.Rng.split rng }
  in
  { shape; state }

let shape t = t.shape

let next t =
  match t.state with
  | Const v -> v
  | Arith a ->
      let v = a.current in
      a.current <- v + a.stride;
      v
  | Cycle c ->
      let v = c.values.(c.pos) in
      c.pos <- (c.pos + 1) mod Array.length c.values;
      v
  | Noisy_cycle c ->
      let v =
        if Vp_util.Rng.bernoulli c.rng c.noise then
          Vp_util.Rng.int c.rng 1_000_000
        else c.values.(c.pos)
      in
      c.pos <- (c.pos + 1) mod Array.length c.values;
      v
  | Noisy n ->
      let v =
        if Vp_util.Rng.bernoulli n.rng n.jump_probability then
          Vp_util.Rng.int n.rng 1_000_000
        else n.current + n.stride
      in
      n.current <- v;
      v
  | Chain c ->
      let v = 16 * c.node in
      c.node <- c.succ.(c.node);
      v
  | Uniform u -> Vp_util.Rng.int u.rng u.range

let take t n = List.init n (fun _ -> next t)

let shape_name = function
  | Constant _ -> "constant"
  | Strided _ -> "strided"
  | Periodic _ -> "periodic"
  | Noisy_periodic _ -> "noisy-periodic"
  | Mostly_strided _ -> "mostly-strided"
  | Pointer_chain _ -> "pointer-chain"
  | Random _ -> "random"
