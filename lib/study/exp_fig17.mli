(** Figure 17: miss rates of Base, C-H and OptS while varying (a) the line
    size of an 8 KB direct-mapped cache from 16 to 128 bytes, and (b) its
    associativity from 1 to 8 ways. *)

type point = {
  label : string;  (** e.g. "64B" or "4way". *)
  workload : string;
  base_pct : float;
  ch_pct : float;
  opt_s_pct : float;
}

val compute_line_sizes : Context.t -> point array
val compute_associativities : Context.t -> point array

val average_reduction : point array -> label:string -> float
(** Mean OptS miss reduction versus Base over the workloads at [label]. *)

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
