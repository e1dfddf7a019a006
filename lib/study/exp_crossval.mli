(** Profile cross-validation (beyond the paper): OptS layouts built from
    each single workload's profile, evaluated on every workload,
    normalized to each workload's own-profile layout. *)

type result = {
  names : string array;
  matrix : float array array;
  average_row : float array;
}

val compute : Context.t -> result
val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
