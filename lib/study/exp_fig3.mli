(** Figure 3: distribution of the probability that an outgoing arc is used
    given that its source block executes (union of all workloads). *)

type result = {
  bins : Arcstat.bin array;
  ge_99 : float;  (** Fraction of arcs with probability >= 0.99. *)
  le_01 : float;  (** Fraction with probability <= 0.01. *)
}

val compute : Context.t -> result

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
