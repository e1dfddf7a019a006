(** Table 2: predictability and weight of core (8 KB) and regular (16 KB)
    sequences per workload. *)

type row = {
  workload : string;
  core_pred : Seqstat.predictability;
  core_weight : Seqstat.weight;
  regular_pred : Seqstat.predictability;
  regular_weight : Seqstat.weight;
}

type result = {
  core : Seqstat.set;
  regular : Seqstat.set;
  rows : row array;
}

val compute : Context.t -> result

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
