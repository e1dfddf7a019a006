(** Table 3: fraction of OS instructions in loops without procedure calls
    (dynamic, static-over-executed, static-over-total). *)

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
