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

val compute_all : t list -> Context.t -> Result.report list
(** {!compute} of every experiment, in one {!Parallel.map_array} fan-out
    (their own fan-outs nest inside it); the reports come back in list
    order.  Reports are identical to one-at-a-time {!compute} under any
    job count, and so is every memo's hits/misses/lookups trio (the memos
    are single-flight).  The [batch.*] replay-work counters are not: which
    of two concurrent experiments replays a shared Sim_cache key first,
    and so how the replays group into passes, depends on scheduling. *)
