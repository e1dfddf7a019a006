(** Victim-cache comparison (beyond the paper): Base and OptS with and
    without a small fully-associative victim buffer next to the 8 KB
    direct-mapped cache. *)

type row = { workload : string; rates : (string * float) list }

val compute : Context.t -> row array
val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
