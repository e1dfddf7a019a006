(** Methodology robustness: the OptS/Base total-miss ratio on the 8 KB
    cache as the traced word budget varies, showing the committed word
    budget is long enough. *)

type point = { words : int; ratio : float }

val budgets_of : int -> int array
(** The sweep points for a committed budget: quarter, half, the budget
    itself and double it. *)

val compute : Context.t -> point array
(** One point per budget.  The budget equal to the context's own words is
    measured on the context itself; the others build contexts of the same
    spec and seed, which share its kernel model. *)

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
