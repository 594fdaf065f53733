type shape_dist =
  | Constant
  | Strided
  | Mostly_strided_band of float * float
  | Noisy_periodic_band of float * float
  | Pointer_chain_band of int * int
  | Random
  | Fixed of Value_stream.shape

type shape_weight = { weight : float; dist : shape_dist }

type t = {
  name : string;
  description : string;
  num_blocks : int;
  block_size_mean : int;
  block_size_spread : int;
  mem_fraction : float;
  store_fraction : float;
  float_fraction : float;
  mul_fraction : float;
  branch_fraction : float;
  dep_density : float;
  locality : int;
  reuse_fraction : float;
  load_chain_bias : float;
  shape_mix : shape_weight list;
  chain_mix : shape_weight list option;
  zipf_skew : float;
  dynamic_executions : int;
}

(* Each case draws its parameters from [rng] in a fixed order; every
   generated workload, and so every table, depends on that order. *)
let draw dist rng =
  match dist with
  | Constant -> Value_stream.Constant (Vp_util.Rng.int rng 4096)
  | Strided ->
      Value_stream.Strided
        {
          base = Vp_util.Rng.int rng 65536;
          stride = 4 * (1 + Vp_util.Rng.int rng 8);
        }
  | Mostly_strided_band (lo, hi) ->
      (* stride rate ~ 1 - jump probability *)
      Value_stream.Mostly_strided
        {
          base = Vp_util.Rng.int rng 65536;
          stride = 4 * (1 + Vp_util.Rng.int rng 4);
          jump_probability = lo +. Vp_util.Rng.float rng (hi -. lo);
        }
  | Noisy_periodic_band (lo, hi) ->
      (* FCM rate degrades a few times the noise *)
      Value_stream.Noisy_periodic
        {
          period = 2 + Vp_util.Rng.int rng 3;
          noise = lo +. Vp_util.Rng.float rng (hi -. lo);
        }
  | Pointer_chain_band (lo, hi) ->
      Value_stream.Pointer_chain
        { nodes = lo + Vp_util.Rng.int rng (hi - lo + 1) }
  | Random ->
      Value_stream.Random { range = 1 lsl (8 + Vp_util.Rng.int rng 16) }
  | Fixed shape -> shape

let w weight dist = { weight; dist }

let compress =
  {
    name = "compress";
    description = "LZW compression: hash-table probes on computed indices";
    num_blocks = 80;
    block_size_mean = 12;
    block_size_spread = 6;
    mem_fraction = 0.30;
    store_fraction = 0.30;
    float_fraction = 0.0;
    mul_fraction = 0.08;
    branch_fraction = 0.85;
    dep_density = 0.72;
    locality = 8;
    reuse_fraction = 0.10;
    load_chain_bias = 0.30;
    shape_mix =
      [
        w 0.08 Constant;
        w 0.06 Strided;
        w 0.32 (Mostly_strided_band (0.05, 0.25));
        w 0.12 (Noisy_periodic_band (0.03, 0.10));
        w 0.42 Random;
      ];
    chain_mix = None;
    zipf_skew = 1.0;
    dynamic_executions = 10_000;
  }

let ijpeg =
  {
    name = "ijpeg";
    description = "JPEG codec: wide DCT blocks, table lookups";
    num_blocks = 80;
    block_size_mean = 16;
    block_size_spread = 8;
    mem_fraction = 0.31;
    store_fraction = 0.35;
    float_fraction = 0.0;
    mul_fraction = 0.20;
    branch_fraction = 0.75;
    dep_density = 0.60;
    locality = 10;
    reuse_fraction = 0.08;
    load_chain_bias = 0.15;
    shape_mix =
      [
        w 0.05 Constant;
        w 0.06 Strided;
        w 0.32 (Mostly_strided_band (0.08, 0.30));
        w 0.11 (Noisy_periodic_band (0.05, 0.12));
        w 0.46 Random;
      ];
    chain_mix = None;
    zipf_skew = 1.0;
    dynamic_executions = 10_000;
  }

let li =
  {
    name = "li";
    description = "Lisp interpreter: cons-cell chasing, small hot blocks";
    num_blocks = 88;
    block_size_mean = 9;
    block_size_spread = 4;
    mem_fraction = 0.40;
    store_fraction = 0.25;
    float_fraction = 0.0;
    mul_fraction = 0.04;
    branch_fraction = 0.9;
    dep_density = 0.70;
    locality = 6;
    reuse_fraction = 0.12;
    load_chain_bias = 0.45;
    shape_mix =
      [
        w 0.10 Constant;
        w 0.12 (Pointer_chain_band (4, 16));
        w 0.44 (Mostly_strided_band (0.05, 0.25));
        w 0.14 (Noisy_periodic_band (0.04, 0.10));
        w 0.20 Random;
      ];
    chain_mix =
      Some
        [
          w 0.40 (Pointer_chain_band (4, 16));
          w 0.35 (Mostly_strided_band (0.05, 0.25));
          w 0.10 Constant;
          w 0.15 Random;
        ];
    zipf_skew = 1.0;
    dynamic_executions = 10_000;
  }

let m88ksim =
  {
    name = "m88ksim";
    description = "CPU simulator: decode tables, register-file indirection";
    num_blocks = 80;
    block_size_mean = 13;
    block_size_spread = 5;
    mem_fraction = 0.28;
    store_fraction = 0.28;
    float_fraction = 0.0;
    mul_fraction = 0.06;
    branch_fraction = 0.85;
    dep_density = 0.86;
    locality = 7;
    reuse_fraction = 0.10;
    load_chain_bias = 0.50;
    shape_mix =
      [
        w 0.10 Constant;
        w 0.10 (Pointer_chain_band (4, 12));
        w 0.50 (Mostly_strided_band (0.08, 0.28));
        w 0.18 (Noisy_periodic_band (0.04, 0.12));
        w 0.12 Random;
      ];
    chain_mix =
      Some
        [
          w 0.35 (Pointer_chain_band (4, 12));
          w 0.40 (Mostly_strided_band (0.06, 0.24));
          w 0.10 Constant;
          w 0.15 Random;
        ];
    zipf_skew = 1.0;
    dynamic_executions = 10_000;
  }

let vortex =
  {
    name = "vortex";
    description = "OO database: deep pointer chains through objects";
    num_blocks = 80;
    block_size_mean = 19;
    block_size_spread = 6;
    mem_fraction = 0.34;
    store_fraction = 0.30;
    float_fraction = 0.0;
    mul_fraction = 0.12;
    branch_fraction = 0.85;
    dep_density = 0.86;
    locality = 5;
    reuse_fraction = 0.10;
    load_chain_bias = 0.70;
    shape_mix =
      [
        w 0.06 Constant;
        w 0.14 (Pointer_chain_band (4, 24));
        w 0.40 (Mostly_strided_band (0.15, 0.35));
        w 0.12 (Noisy_periodic_band (0.05, 0.14));
        w 0.28 Random;
      ];
    chain_mix =
      Some
        [
          w 0.45 (Pointer_chain_band (4, 24));
          w 0.35 (Mostly_strided_band (0.10, 0.30));
          w 0.08 Constant;
          w 0.12 Random;
        ];
    zipf_skew = 1.0;
    dynamic_executions = 10_000;
  }

let hydro2d =
  {
    name = "hydro2d";
    description = "Navier-Stokes solver: strided FP loops with recurrences";
    num_blocks = 72;
    block_size_mean = 18;
    block_size_spread = 8;
    mem_fraction = 0.38;
    store_fraction = 0.30;
    float_fraction = 0.45;
    mul_fraction = 0.10;
    branch_fraction = 0.7;
    dep_density = 0.84;
    locality = 6;
    reuse_fraction = 0.06;
    load_chain_bias = 0.25;
    shape_mix =
      [
        w 0.12 Constant;
        w 0.16 Strided;
        w 0.46 (Mostly_strided_band (0.03, 0.15));
        w 0.06 (Noisy_periodic_band (0.03, 0.08));
        w 0.20 Random;
      ];
    chain_mix = None;
    zipf_skew = 1.0;
    dynamic_executions = 10_000;
  }

let swim =
  {
    name = "swim";
    description = "Shallow-water model: wide, parallel, resource-bound loops";
    num_blocks = 72;
    block_size_mean = 28;
    block_size_spread = 10;
    mem_fraction = 0.36;
    store_fraction = 0.35;
    float_fraction = 0.50;
    mul_fraction = 0.10;
    branch_fraction = 0.6;
    dep_density = 0.26;
    locality = 18;
    reuse_fraction = 0.04;
    load_chain_bias = 0.02;
    shape_mix =
      [
        w 0.06 Constant;
        w 0.10 Strided;
        w 0.52 (Mostly_strided_band (0.04, 0.18));
        w 0.10 (Noisy_periodic_band (0.03, 0.08));
        w 0.22 Random;
      ];
    chain_mix = None;
    zipf_skew = 1.0;
    dynamic_executions = 10_000;
  }

let tomcatv =
  {
    name = "tomcatv";
    description = "Mesh generation: parallel FP loops, mild recurrences";
    num_blocks = 72;
    block_size_mean = 28;
    block_size_spread = 7;
    mem_fraction = 0.35;
    store_fraction = 0.32;
    float_fraction = 0.48;
    mul_fraction = 0.10;
    branch_fraction = 0.6;
    dep_density = 0.32;
    locality = 16;
    reuse_fraction = 0.05;
    load_chain_bias = 0.03;
    shape_mix =
      [
        w 0.08 Constant;
        w 0.12 Strided;
        w 0.62 (Mostly_strided_band (0.04, 0.18));
        w 0.08 (Noisy_periodic_band (0.03, 0.08));
        w 0.10 Random;
      ];
    chain_mix = None;
    zipf_skew = 1.0;
    dynamic_executions = 10_000;
  }

let spec_int = [ compress; ijpeg; li; m88ksim; vortex ]
let spec_fp = [ hydro2d; swim; tomcatv ]
let all = spec_int @ spec_fp

let by_name name =
  let name = String.lowercase_ascii name in
  let name = if name = "tjpeg" then "ijpeg" else name in
  List.find_opt (fun t -> t.name = name) all

let resolve names =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | n :: rest -> (
        match by_name n with Some m -> go (m :: acc) rest | None -> Error n)
  in
  if names = [] then Ok all else go [] names

let draw_shape ?(chained = false) t rng =
  let mix =
    if chained then Option.value ~default:t.shape_mix t.chain_mix
    else t.shape_mix
  in
  let weights = Array.of_list (List.map (fun sw -> sw.weight) mix) in
  draw (List.nth mix (Vp_util.Rng.weighted_index rng weights)).dist rng
