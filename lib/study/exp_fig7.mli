(** Figure 7: OS instruction words fetched between two consecutive calls
    to the same routine within one OS invocation, for the 10 most popular
    routines, averaged over the workloads. *)

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
