(** Conflict-vs-capacity miss decomposition: the fully-associative LRU
    floor from stack distances against the simulated direct-mapped misses
    under Base and OptS. *)

type row = {
  workload : string;
  base_fa : int;
  opt_fa : int;
  base_dm : int;
  opt_dm : int;
}

val conflict : dm:int -> fa:int -> int

val compute : Context.t -> row array
val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
