(** Ablation study (not a paper figure): remove one OptS ingredient at a
    time - the descending threshold schedule, the four seeds, the
    caller/callee interleaving, the SelfConfFree area - and measure the
    miss cost on the paper's 8 KB direct-mapped cache, summed over the
    four workloads. *)

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
