(** Figure 6: normalized dynamic invocation counts of OS routines, sorted
    descending - a few routines dominate. *)

type result = {
  workload : string;
  executed_routines : int;
  top5_pct : float;  (** Share of invocations in the 5 hottest routines. *)
  top20_pct : float;
  series_head : float array;  (** First 20 normalized values. *)
}

val compute : Context.t -> result array

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
