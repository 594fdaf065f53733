(** The artifact registry: every result the evaluation prints or serves,
    written down once.

    An artifact is one printed block of the evaluation — a paper table or
    figure, an extension table, the worked example, an ablation sweep —
    under the name a serve request asks for it by. [vliw_vp all], the
    report, the artifact subcommands and the serve daemon take the set,
    its order and its bytes from {!registry}. A request-declared
    [sweep:NAME] is not an entry, because its points are request data; it
    is declared through {!sweep}.

    {b Bytes.} An artifact's {e value}, the string its render node holds,
    is its {e text} followed by the separator ["\n"]. The value is exactly
    what [vliw_vp all] prints for the artifact (the separator makes the
    blank line between two artifacts) and what a serve result frame
    carries, so the values of {!all_sequence} concatenate to the [all]
    document. The report fences the text. A subcommand prints {!stdout}:
    the text for a {!Table} command, the whole value for a {!Bare} command
    ([example]) and for [ablate --sweep] ({!Sweep}). So the served bytes
    are a table subcommand's stdout plus ["\n"], and equal to the stdout
    of [vliw_vp example] and of [vliw_vp ablate --sweep NAME]. *)

type format = [ `Ascii | `Csv ]

(** How [vliw_vp] prints one artifact on its own. *)
type command =
  | Table of { cmd : string; doc : string; csv : bool }
      (** [vliw_vp CMD] takes the experiment flags ([-w], [--seed],
          [--threshold], [-b] and the execution flags), and [--csv] when
          [csv] holds; it prints the text. *)
  | Bare of { cmd : string; doc : string }
      (** [vliw_vp CMD] takes no flag and renders at the default
          configuration; it prints the value. *)
  | Sweep of string
      (** [vliw_vp ablate --sweep NAME]; it prints the value. *)

type t = {
  name : string;  (** the name a submit request asks for *)
  title : string;  (** the report heading *)
  command : command option;  (** [None]: served and reported only *)
  declare :
    Vp_exec.Graph.t ->
    key:string ->
    config:Config.t ->
    models:Vp_workload.Spec_model.t list ->
    format:format ->
    string Vp_exec.Graph.node;
      (** Declare the artifact's {!Experiments.Suite} nodes and return its
          render node: [~cache:false], under [key], holding the value. *)
}

val all_sequence : t list
(** What [vliw_vp all] prints, in order: [table2], [table3], [table4],
    [fig8], [comparison], [regions], [overlap], [example]. *)

val registry : t list
(** {!all_sequence}, then the extensions [hyperblocks], [hardware],
    [stability], [recovery] (the first model's recovery sensitivity) and
    [regions:frontier], then one [ablate:NAME] per
    {!Experiments.ablation_sweeps} entry, titled by its [sweep_title]. *)

val find : string -> t option
(** The entry of that name. *)

val text : string -> string
(** A value's text: the value without its separator. *)

val stdout : t -> string -> string
(** What the artifact's command prints, given its value. *)

(** {1 Render keys}

    A render key is a {!Vp_exec.Store.key} of plain data, so the CLI, the
    daemon and every shard compute the same key for the same work, and
    the daemon routes an artifact to the shard its key hashes to. Render
    nodes are never store-cached: no render key reaches the store. *)

val shared_key :
  config:Config.t ->
  models:Vp_workload.Spec_model.t list ->
  format:format ->
  string
(** What every artifact of one request shares: its models, configuration
    and format. *)

val render_key :
  shared:string -> ?points:(string * Config.t) list -> string -> string
(** [render_key ~shared ?points name] keys artifact [name]'s render node.
    [points] are a [sweep:NAME] artifact's applied point configurations,
    so two requests declaring different points under one sweep name never
    share a node. *)

val nodes :
  Vp_exec.Graph.t ->
  config:Config.t ->
  models:Vp_workload.Spec_model.t list ->
  format:format ->
  t list ->
  string Vp_exec.Graph.node list
(** Each entry's render node, declared in list order under its render
    key. Declaring several before the first await runs their union on one
    graph, where a suite node two artifacts share runs once. *)

val sweep :
  Vp_exec.Graph.t ->
  key:string ->
  config:Config.t ->
  models:Vp_workload.Spec_model.t list ->
  format:format ->
  name:string ->
  (string * Config.t) list ->
  string Vp_exec.Graph.node
(** The render node of the request-declared [sweep:NAME]: its points run
    as {!Experiments.Suite.config_sweep} for each model, rendered as an
    [ablate:NAME] artifact is. *)
