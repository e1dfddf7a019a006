(** Figure 8: normalized invocation counts of basic blocks (union of
    workloads, loop iterations discounted), sorted descending. *)

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
