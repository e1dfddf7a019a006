(** Registry of every reproduced table and figure. *)

type t = {
  id : string;  (** e.g. "table1", "fig12". *)
  title : string;
  compute : Context.t -> Result.report;  (** The typed result. *)
}

val all : t list
(** In paper order. *)

val find : string -> t
(** @raise Not_found on an unknown id. *)

val compute : t -> Context.t -> Result.report
(** [e.compute], timed as the {!Trace_log.stage} [experiment.<id>]. *)

val run : t -> Context.t -> unit
(** {!compute} rendered as text to stdout — the classic transcript. *)

val run_all : Context.t -> unit
