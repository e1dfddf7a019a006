(** Figure 13: OS references and misses classified by the region the block
    has in the OptL layout (MainSeq / SelfConfFree / Loops / OtherSeq),
    for Base, C-H, OptS and OptL in the 8 KB direct-mapped cache. *)

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
