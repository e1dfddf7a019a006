(** Figure 7: OS instruction words fetched between two consecutive calls
    to the same routine within one OS invocation, for the 10 most popular
    routines, averaged over the workloads. *)

type result = {
  bins : (string * int) list;
  within_100_pct : float;
  within_1000_pct : float;
  last_inv_pct : float;
  top_routines : string list;
}

val compute : Context.t -> result

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
