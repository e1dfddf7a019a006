(** Baseline comparison beyond the paper: Base / Chang-Hwu /
    Pettis-Hansen / OptS miss rates on the 8 KB direct-mapped cache. *)

type row = { workload : string; rates : (string * float) list }

val compute : Context.t -> row array
val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
