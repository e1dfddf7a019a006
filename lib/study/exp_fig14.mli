(** Figure 14: distribution of OS misses over the code (sum of workloads,
    8 KB direct-mapped, 32-byte lines) under Base, C-H and OptS; blocks are
    plotted at their Base-layout addresses so the peaks are comparable. *)

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
