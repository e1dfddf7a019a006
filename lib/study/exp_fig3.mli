(** Figure 3: distribution of the probability that an outgoing arc is used
    given that its source block executes (union of all workloads). *)

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
