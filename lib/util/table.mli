(** Plain-text table rendering for experiment reports.

    The benchmark harness prints each reproduced paper table in an aligned
    ASCII format; this module owns the layout so that every table looks the
    same. *)

type align = Left | Right

type t

val create : ?title:string -> (string * align) list -> t
(** [create ~title columns] starts a table with the given column headers and
    alignments. *)

val add_row : t -> string list -> unit
(** Append a row. Raises [Invalid_argument] if the arity does not match the
    header. *)

val add_separator : t -> unit
(** Append a horizontal rule (used between benchmark groups). *)

val render : t -> string
(** The full table as a string, including title and rules. *)

val render_csv : t -> string
(** Comma-separated rendering (header row then data rows; separators and
    the title are dropped; cells containing commas or quotes are quoted).
    For piping experiment results into plotting tools. *)

val unit_header : [ `Ascii | `Csv ] -> string -> string -> string
(** [unit_header format header unit] heads a column of {!unit_cell}s:
    [header] in an aligned table, [header ^ " [" ^ unit ^ "]"] in CSV. *)

val unit_cell : [ `Ascii | `Csv ] -> string -> string -> string
(** [unit_cell format digits unit] is [digits ^ unit] in an aligned table
    and [digits] alone in CSV, so every CSV cell of the column parses as a
    number and its header ({!unit_header}) names the unit. *)

val pp : Format.formatter -> t -> unit

val cell_f : float -> string
(** Canonical formatting for fractional cells: two decimals, e.g. "0.48". *)

