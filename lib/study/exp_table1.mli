(** Table 1: characteristics of the operating-system instruction
    references - executed code size (bytes, % of code, % of basic blocks)
    and the invocation mix per class. *)

type row = {
  workload : string;
  executed_bytes : int;
  executed_code_pct : float;
  executed_bb_pct : float;
  invocation_pct : float array;  (** Per service class. *)
}

val compute : Context.t -> row array

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
