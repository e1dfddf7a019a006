(** Fall-through rate (beyond the paper): the fraction of dynamic OS
    block transitions whose successor is textually adjacent, per layout
    level - the fetch-side benefit of straightened control flow. *)

val rate : trace:Trace.t -> map:Replay.code_map -> float
(** The fall-through fraction of [trace]'s OS block transitions under
    [map]; a transition never spans an invocation boundary. *)

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
