(** The execution context the experiment layer threads through: how many
    worker domains, which result cache (if any), and where telemetry
    goes. {!Graph} is the one executor that reads it. *)

type t = {
  jobs : int;  (** worker domains; 1 = sequential, bit-identical *)
  store : Store.t option;  (** [None] disables caching *)
  progress : Progress.t;
}

exception
  Job_failed of {
    key : string;
    label : string;
    message : string;  (** the printed exception *)
  }
(** Raised by {!Graph.await} for a node that failed or was poisoned; the
    CLI turns it into a one-line stderr message and a non-zero exit. *)

val sequential : t
(** One worker, no store, silent progress. *)

val create :
  ?jobs:int ->
  ?store:Store.t ->
  ?progress:Progress.t ->
  unit ->
  t
(** Defaults: [jobs = 1], no store, silent progress. *)
