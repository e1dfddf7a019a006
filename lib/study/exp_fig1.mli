(** Figure 1: misses on OS code in a 16 KB direct-mapped cache as a
    function of code virtual address (TRFD+Make), split into total,
    self-interference and interference-with-application components, in
    1 KB address bins. *)

type result = {
  total_bins : int array;
  self_bins : int array;
  cross_bins : int array;
  self_pct : float;  (** Self-interference share of OS misses. *)
  top2_peak_pct : float;  (** Share of OS misses in the two largest bins. *)
}

val compute : Context.t -> result

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
