(** Minimal JSON: the serve wire protocol and the telemetry document.

    The project deliberately avoids new dependencies, so this is
    hand-rolled: every telemetry section ([--telemetry], served stats) is
    built as a [t] and printed by {!to_string}, and the daemon {e reads}
    requests with {!parse}. Standard JSON, with two simplifications that
    are harmless here: integers parse to [Int] (anything else to
    [Float]), and [\uXXXX] escapes decode without surrogate-pair
    recombination. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering with full string escaping — one frame
    payload is always newline-free apart from escaped [\n]s. *)

val emit : Buffer.t -> t -> unit
(** Append {!to_string}'s bytes to the buffer. *)

val parse : string -> (t, string) result
(** Whole-string parse; the error carries a byte offset. Arrays and
    objects nested more than 64 deep are rejected with an error naming
    the limit, so a hostile frame costs at most 64 stack frames. *)

(** {1 Accessors} — all total, [None] on shape mismatch. *)

val member : string -> t -> t option
val get_string : t -> string option
val get_int : t -> int option

val get_float : t -> float option
(** Accepts [Int] too. *)

val get_bool : t -> bool option
val string_member : string -> t -> string option
val int_member : string -> t -> int option
val float_member : string -> t -> float option
val list_member : string -> t -> t list option
