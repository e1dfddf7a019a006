(** Multiprocessor validation (the paper's 4-CPU, one-cache-per-processor
    methodology): per-CPU miss rates under Base and OptS with
    cross-processor interrupt coupling. *)

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
