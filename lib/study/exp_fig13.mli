(** Figure 13: OS references and misses classified by the region the block
    has in the OptL layout (MainSeq / SelfConfFree / Loops / OtherSeq),
    for Base, C-H, OptS and OptL in the 8 KB direct-mapped cache. *)

type split = {
  main_seq : float;
  self_conf_free : float;
  loops : float;
  other_seq : float;
}

type row = {
  workload : string;
  refs : split;  (** Percentages of OS references. *)
  misses : (Levels.level * split) array;  (** Percentages of OS misses. *)
}

val compute : Context.t -> row array

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
