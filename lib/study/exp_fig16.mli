(** Figure 16: effect of the SelfConfFree-area size.  Layout variants:
    Base, no SelfConfFree area, and cut-offs of 3.0%, 2.0% and 1.0% of the
    loop-adjusted block invocations; caches of 4, 8 and 16 KB
    (direct-mapped, 32-byte lines).  Misses are normalized to Base.  The
    report's [cut-off] and [scf_area_bytes] values give the area each
    cut-off produces. *)

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
