(** Fall-through rate (beyond the paper): the fraction of dynamic OS
    block transitions whose successor is textually adjacent, per layout
    level - the fetch-side benefit of straightened control flow. *)

type row = { workload : string; rates : (string * float) list }

val rate : trace:Trace.t -> map:Replay.code_map -> float

val compute : Context.t -> row array
val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
