(** Figure 8: normalized invocation counts of basic blocks (union of
    workloads, loop iterations discounted), sorted descending. *)

type result = {
  executed_blocks : int;
  peak_pct : float;  (** Largest normalized value (paper: ~5%). *)
  above_3pct : int;
  above_1pct : int;
  below_001pct : int;
}

val compute : Context.t -> result

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
