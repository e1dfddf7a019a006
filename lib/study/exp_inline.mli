(** Function-inlining comparison (the alternative Section 4.1 rejects):
    rewrite the kernel with {!Inline.transform}, re-trace, lay it out with
    OptS, and compare against OptS on the original kernel. *)

type row = {
  workload : string;
  opt_s_rate : float;
  inline_rate : float;
}

type result = {
  stats : Inline.stats;
  code_growth_pct : float;
  rows : row array;
}

val compute : Context.t -> result
val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
