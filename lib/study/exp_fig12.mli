(** Figure 12: normalized references (OS vs application) and normalized
    misses under Base / C-H / OptS / OptL / OptA in an 8 KB direct-mapped
    cache with 32-byte lines, with the four-way miss breakdown (cold
    misses count as self-interference). *)

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
