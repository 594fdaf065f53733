(* Request semantics shared by the in-process server, the sharded
   supervisor and its forked workers: building the experiment [Config.t]
   from a submit (core fields plus validated machine-config overrides),
   resolving benchmark models, computing artifact render keys — the
   identity used both for graph dedup and for shard routing — and
   declaring artifact render nodes on a graph.

   Supervisor and workers must agree exactly on all of this: the
   supervisor routes an artifact to the shard its render key hashes to,
   and the worker answers equal work from the node under the same key. *)

module G = Vp_exec.Graph

(* --- machine-config overrides ------------------------------------------ *)

(* Wire names for profiling-predictor kinds ("stride", "fcm-2", ...). *)
let predictor_of_name name =
  let module P = Vp_predict.Predictor in
  let fcm_order default =
    match String.index_opt name '-' with
    | None -> Some default
    | Some i -> (
        match int_of_string_opt (String.sub name (i + 1) (String.length name - i - 1)) with
        | Some o when o >= 1 && o <= 8 -> Some o
        | _ -> None)
  in
  let prefixed p = name = p || String.starts_with ~prefix:(p ^ "-") name in
  if name = "last-value" then Some P.Last_value
  else if name = "stride" then Some P.Stride
  else if prefixed "fcm" then
    Option.map (fun order -> P.Fcm { order; table_bits = 12 }) (fcm_order 2)
  else if prefixed "dfcm" then
    Option.map (fun order -> P.Dfcm { order; table_bits = 12 }) (fcm_order 2)
  else if prefixed "hybrid" then
    Option.map
      (fun order -> P.Hybrid_stride_fcm { order; table_bits = 12 })
      (fcm_order 2)
  else None

(* One machine-config override: apply a validated JSON value to the
   config, or explain why it is invalid. Core keys (width, seed,
   threshold) are accepted too so sweep points can sweep them. *)
let apply_override (c : Vliw_vp.Config.t) (key, (v : Jsonx.t)) :
    (Vliw_vp.Config.t, string) result =
  let module C = Vliw_vp.Config in
  let int_range lo hi f =
    match Jsonx.get_int v with
    | Some n when n >= lo && n <= hi -> Ok (f n)
    | Some n -> Error (Printf.sprintf "%s out of range [%d, %d]: %d" key lo hi n)
    | None -> Error (Printf.sprintf "%s must be an integer" key)
  in
  match key with
  | "width" -> (
      match Jsonx.get_int v with
      | Some n ->
          Result.map
            (fun width -> { c with C.width })
            (Vp_machine.Descr.check_width n)
      | None -> Error "width must be an integer")
  | "seed" -> int_range min_int max_int (fun seed -> { c with C.seed })
  | "threshold" -> (
      match Jsonx.get_float v with
      | Some t ->
          Result.map
            (fun threshold -> { c with C.policy = { c.C.policy with threshold } })
            (Vp_vspec.Policy.check_threshold t)
      | None -> Error "threshold must be a number")
  | "max_enumerated_predictions" ->
      int_range 0 16 (fun max_enumerated_predictions ->
          { c with C.max_enumerated_predictions })
  | "monte_carlo_draws" ->
      int_range 1 100_000 (fun monte_carlo_draws ->
          { c with C.monte_carlo_draws })
  | "ccb_capacity" -> (
      match v with
      | Jsonx.Null -> Ok (C.with_ccb_capacity None c)
      | _ -> int_range 1 1_000_000 (fun n -> C.with_ccb_capacity (Some n) c))
  | "cce_retire_width" ->
      int_range 1 64 (fun cce_retire_width -> { c with C.cce_retire_width })
  | "branch_penalty" ->
      int_range 0 1_000 (fun branch_penalty -> { c with C.branch_penalty })
  | "miss_penalty" ->
      int_range 0 100_000 (fun miss_penalty -> { c with C.miss_penalty })
  | "trace_length" ->
      int_range 1 10_000_000 (fun trace_length -> { c with C.trace_length })
  | "charge_cce_drain" -> (
      match Jsonx.get_bool v with
      | Some charge_cce_drain -> Ok { c with C.charge_cce_drain }
      | None -> Error "charge_cce_drain must be a boolean")
  | "profile_predictors" -> (
      match v with
      | Jsonx.Null -> Ok { c with C.profile_predictors = None }
      | Jsonx.List names ->
          let rec go acc = function
            | [] -> Ok { c with C.profile_predictors = Some (List.rev acc) }
            | x :: rest -> (
                match Option.bind (Jsonx.get_string x) predictor_of_name with
                | Some kind -> go (kind :: acc) rest
                | None ->
                    Error
                      "profile_predictors must be a list of predictor names \
                       (last-value, stride, fcm[-N], dfcm[-N], hybrid[-N])")
          in
          if names = [] then Error "profile_predictors must not be empty"
          else go [] names
      | _ -> Error "profile_predictors must be a list of names or null")
  | _ -> Error (Printf.sprintf "unknown config key %S" key)

let apply_overrides config overrides =
  List.fold_left
    (fun acc ov ->
      match acc with Error _ -> acc | Ok c -> apply_override c ov)
    (Ok config) overrides

(* --- the validated request spec ---------------------------------------- *)

type t = {
  config : Vliw_vp.Config.t;  (* core fields + overrides, fully applied *)
  models : Vp_workload.Spec_model.t list;
  format : Vliw_vp.Artifact.format;
  sweeps : (string * (string * Vliw_vp.Config.t) list) list;
      (* custom sweeps: each point's overrides applied to [config] *)
  shared : string Lazy.t;
      (* the key of what every render key of the spec shares: models,
         config and format — marshalled at most once per spec, and not at
         all by a caller that needs no key *)
}

let of_submit (s : Protocol.submit) : (t, Protocol.reject) result =
  match Vp_workload.Spec_model.resolve s.benchmarks with
  | Error name ->
      Error (Protocol.reject "unknown_benchmark" "unknown benchmark %S" name)
  | Ok models -> (
      (* the CLI's construction too: served bytes equal CLI bytes, and
         job keys (so dedup and the warm store) line up *)
      let base =
        Vliw_vp.Config.make ~width:s.width ~seed:s.seed ~threshold:s.threshold
      in
      match apply_overrides base s.overrides with
      | Error msg -> Error (Protocol.reject "bad_config" "%s" msg)
      | Ok config ->
          let rec sweeps acc = function
            | [] -> Ok (List.rev acc)
            | (name, points) :: rest -> (
                let rec go pacc = function
                  | [] -> Ok (name, List.rev pacc)
                  | (label, overrides) :: prest -> (
                      match apply_overrides config overrides with
                      | Error msg ->
                          Error
                            (Protocol.reject "bad_sweep"
                               "sweep %S, point %S: %s" name label msg)
                      | Ok pconfig -> go ((label, pconfig) :: pacc) prest)
                in
                match go [] points with
                | Error _ as e -> e
                | Ok sweep -> sweeps (sweep :: acc) rest)
          in
          let format = if s.csv then `Csv else `Ascii in
          let shared =
            lazy (Vliw_vp.Artifact.shared_key ~config ~models ~format)
          in
          Result.map
            (fun sweeps -> { config; models; format; sweeps; shared })
            (sweeps [] s.sweeps))

(* --- render keys and shard routing -------------------------------------- *)

let sweep_name artifact =
  if String.starts_with ~prefix:"sweep:" artifact then
    Some (String.sub artifact 6 (String.length artifact - 6))
  else None

(* A request-declared sweep's applied point configs go into its render
   key: two requests declaring different points under the same sweep name
   (and base config) must not share a node. *)
let render_key spec ~artifact =
  Vliw_vp.Artifact.render_key ~shared:(Lazy.force spec.shared)
    ?points:
      (Option.bind (sweep_name artifact) (fun name ->
           List.assoc_opt name spec.sweeps))
    artifact

(* Shard routing: a stable function of the render key alone, so equal work
   always lands on the same shard (preserving in-flight dedup) and the
   mapping survives a shard re-fork. *)
let shard_of_key ~workers key =
  if workers <= 1 then 0
  else int_of_string ("0x" ^ String.sub key 0 7) mod workers

(* --- artifact declaration ----------------------------------------------- *)

(* A registry artifact declares through its entry; anything else
   [Protocol.expand_experiments] admitted is one of the request's own
   sweeps. *)
let declare g spec artifact ~key : string G.node =
  let { config; models; format; sweeps; shared = _ } = spec in
  match Vliw_vp.Artifact.find artifact with
  | Some a -> a.declare g ~key ~config ~models ~format
  | None ->
      let name = Option.get (sweep_name artifact) in
      Vliw_vp.Artifact.sweep g ~key ~config ~models ~format ~name
        (List.assoc name sweeps)

(* A warm request is one lookup per artifact. Equal render keys mean equal
   leaves, and the graph keeps finished nodes (up to the node-cache LRU),
   so a render node already on the graph — in flight, finished or failed —
   is the node a full re-declaration would dedup onto; only a miss (the
   key's first request, or an eviction) declares leaves and reducers. *)
let declare_artifact g spec artifact : string G.node =
  let key = render_key spec ~artifact in
  match G.find g ~key with
  | Some n -> n
  | None -> declare g spec artifact ~key
