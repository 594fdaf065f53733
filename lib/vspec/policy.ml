type t = {
  threshold : float;
  max_predictions : int;
  max_sync_bits : int;
  min_dependents : int;
  critical_path_only : bool;
  non_speculative : int list;
}

let default =
  {
    threshold = 0.65;
    max_predictions = 4;
    max_sync_bits = 32;
    min_dependents = 1;
    critical_path_only = true;
    non_speculative = [];
  }

let aggressive =
  {
    threshold = 0.5;
    max_predictions = 8;
    max_sync_bits = 64;
    min_dependents = 1;
    critical_path_only = false;
    non_speculative = [];
  }

let pp ppf t =
  Format.fprintf ppf
    "threshold %.2f, max %d predictions, %d sync bits, min %d dependents%s"
    t.threshold t.max_predictions t.max_sync_bits t.min_dependents
    (if t.critical_path_only then ", critical-path only" else "")
