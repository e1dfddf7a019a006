(** Conflict-vs-capacity miss decomposition: the fully-associative LRU
    floor from stack distances against the simulated direct-mapped misses
    under Base and OptS. *)

val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
