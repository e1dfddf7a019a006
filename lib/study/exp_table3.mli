(** Table 3: fraction of OS instructions in loops without procedure calls
    (dynamic, static-over-executed, static-over-total). *)

type row = {
  workload : string;
  dynamic_pct : float;
  static_executed_pct : float;
  static_pct : float;
}

val compute : Context.t -> row array

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
