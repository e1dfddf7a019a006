(** Table 2: predictability and weight of core (8 KB) and regular (16 KB)
    sequences per workload. *)

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
