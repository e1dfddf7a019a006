(** Figure 4: loops without procedure calls - distribution of iterations
    per invocation (left) and of the static size of the executed part
    (right).  Union of the four workloads. *)

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
