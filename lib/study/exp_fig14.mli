(** Figure 14: distribution of OS misses over the code (sum of workloads,
    8 KB direct-mapped, 32-byte lines) under Base, C-H and OptS; blocks are
    plotted at their Base-layout addresses so the peaks are comparable. *)

type result = {
  level : Levels.level;
  bins : int array;
  total : int;
  top5_pct : float;
  tallest_peak : int;
}

val compute : Context.t -> result array

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
