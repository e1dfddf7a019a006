(** Profile cross-validation (beyond the paper): OptS layouts built from
    each single workload's profile, evaluated on every workload,
    normalized to each workload's own-profile layout. *)

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
