type load_profile = {
  op_id : int;
  stream : int;
  samples : int;
  stride_rate : float;
  fcm_rate : float;
  rate : float;
}

type block_profile = {
  block_index : int;
  executions : int;
  loads : load_profile list;
}

type t = { blocks : block_profile array }

(* One preallocated kernel pass per (domain, kinds): profiling replays
   every load of a run through the same states instead of building fresh
   ones — for the FCM kind, a whole prediction table — per load. The cache
   is domain-local, so concurrent pipeline jobs never share mutable
   kernel state. *)
let pass_cache :
    (Vp_predict.Predictor.kind list, Vp_predict.Kernel.pass) Hashtbl.t
    Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4)

let pass_for kinds =
  let cache = Domain.DLS.get pass_cache in
  match Hashtbl.find_opt cache kinds with
  | Some p -> p
  | None ->
      let p = Vp_predict.Kernel.make_pass ~kinds in
      Hashtbl.add cache kinds p;
      p

let stream_rates workload ~stream ~samples ~kinds =
  (* One pass of the unboxed kernels over the stream's arena. *)
  let arena = Vp_workload.Workload.arena workload stream ~min_len:samples in
  let pass = pass_for kinds in
  Vp_predict.Kernel.run_pass pass arena ~off:0 ~len:samples;
  Array.init (Vp_predict.Kernel.pass_size pass)
    (Vp_predict.Kernel.pass_rate pass)

(* [stride_idx] / [fcm_idx] are the positions of the first [Stride] /
   first [Fcm _] kind in the predictor list (-1 when absent), computed
   once per profile instead of a list walk per load. *)
let first_index pred kinds =
  let rec go i = function
    | [] -> -1
    | k :: rest -> if pred k then i else go (i + 1) rest
  in
  go 0 kinds

let profile_load ~predictors ~stride_idx ~fcm_idx ~rates:rates_of
    ~max_samples ~executions (op : Vp_ir.Operation.t) =
  let stream =
    match op.stream with
    | Some s -> s
    | None -> invalid_arg "Value_profile: load without a stream"
  in
  let samples = max 1 (min executions max_samples) in
  let rates = rates_of ~stream ~samples ~kinds:predictors in
  let best = ref 0.0 in
  Array.iter (fun r -> if r > !best then best := r) rates;
  {
    op_id = op.id;
    stream;
    samples;
    stride_rate = (if stride_idx >= 0 then rates.(stride_idx) else 0.0);
    fcm_rate = (if fcm_idx >= 0 then rates.(fcm_idx) else 0.0);
    rate = !best;
  }

let paper_predictors ~fcm_order ~fcm_table_bits =
  [
    Vp_predict.Predictor.Stride;
    Vp_predict.Predictor.Fcm { order = fcm_order; table_bits = fcm_table_bits };
  ]

let profile ?program ?predictors ?rates ?(max_samples = 2000) ?(fcm_order = 2)
    ?(fcm_table_bits = 12) workload =
  let program =
    Option.value ~default:(Vp_workload.Workload.program workload) program
  in
  let predictors =
    Option.value
      ~default:(paper_predictors ~fcm_order ~fcm_table_bits)
      predictors
  in
  let rates =
    match rates with
    | Some f -> f
    | None ->
        fun ~stream ~samples ~kinds ->
          stream_rates workload ~stream ~samples ~kinds
  in
  let stride_idx =
    first_index (( = ) Vp_predict.Predictor.Stride) predictors
  in
  let fcm_idx =
    first_index
      (function Vp_predict.Predictor.Fcm _ -> true | _ -> false)
      predictors
  in
  let blocks =
    Array.mapi
      (fun i (wb : Vp_ir.Program.weighted_block) ->
        let loads =
          List.map
            (profile_load ~predictors ~stride_idx ~fcm_idx ~rates
               ~max_samples ~executions:wb.count)
            (Vp_ir.Block.loads wb.block)
        in
        { block_index = i; executions = wb.count; loads })
      (Vp_ir.Program.blocks program)
  in
  { blocks }

let blocks t = Array.copy t.blocks

let block t i =
  if i < 0 || i >= Array.length t.blocks then
    invalid_arg "Value_profile.block: out of range";
  t.blocks.(i)

let rate t ~block:i ~op =
  if i < 0 || i >= Array.length t.blocks then None
  else
    List.find_map
      (fun lp -> if lp.op_id = op then Some lp.rate else None)
      t.blocks.(i).loads

let mean_rate t =
  let acc = Vp_util.Stats.Acc.create () in
  Array.iter
    (fun bp ->
      List.iter
        (fun lp ->
          Vp_util.Stats.Acc.add_weighted acc lp.rate
            (float_of_int bp.executions))
        bp.loads)
    t.blocks;
  Vp_util.Stats.Acc.mean acc

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iter
    (fun bp ->
      List.iter
        (fun lp ->
          Format.fprintf ppf
            "block %d op %d (stream %d): stride %.3f fcm %.3f -> %.3f@ "
            bp.block_index lp.op_id lp.stream lp.stride_rate lp.fcm_rate
            lp.rate)
        bp.loads)
    t.blocks;
  Format.fprintf ppf "@]"
