(** Figure 5: loops with procedure calls - iterations per invocation and
    static size of the executed part including callee descendants. *)

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
