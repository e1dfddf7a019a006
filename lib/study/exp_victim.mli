(** Victim-cache comparison (beyond the paper): Base and OptS with and
    without a small fully-associative victim buffer next to the 8 KB
    direct-mapped cache. *)

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
