(** Methodology robustness: the OptS/Base total-miss ratio on the 8 KB
    cache as the traced word budget varies - a quarter, half, the
    context's own budget and double it - showing the committed word
    budget is long enough.  The budget equal to the context's own words
    is measured on the context itself; the others build contexts of the
    same spec and seed, which share its kernel model. *)

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
