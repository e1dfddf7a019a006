(** Table 1: characteristics of the operating-system instruction
    references - executed code size (bytes, % of code, % of basic blocks)
    and the invocation mix per class - one column per workload. *)

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
