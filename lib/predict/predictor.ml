type kind =
  | Last_value
  | Stride
  | Fcm of { order : int; table_bits : int }
  | Dfcm of { order : int; table_bits : int }
  | Hybrid_stride_fcm of { order : int; table_bits : int }

let kind_name = function
  | Last_value -> "last-value"
  | Stride -> "stride"
  | Fcm { order; _ } -> Printf.sprintf "fcm-%d" order
  | Dfcm { order; _ } -> Printf.sprintf "dfcm-%d" order
  | Hybrid_stride_fcm _ -> "hybrid"

let pp_kind ppf k = Format.pp_print_string ppf (kind_name k)
