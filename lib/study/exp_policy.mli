(** Replacement-policy sensitivity (beyond the paper): the Base and OptS
    miss rates on a 4-way 8 KB cache under LRU, FIFO and random
    replacement. *)

type row = {
  workload : string;
  rates : (string * float * float) array;  (** policy, Base, OptS. *)
}

val compute : Context.t -> row array
val report : Context.t -> Result.report
(** Typed report whose text rendering is the classic transcript. *)
