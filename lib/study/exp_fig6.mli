(** Figure 6: normalized dynamic invocation counts of OS routines, sorted
    descending - a few routines dominate. *)

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
